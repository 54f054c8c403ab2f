// Command bench is the one ruler for G-SACS: four seeded, answer-checked
// workloads against a live gsacs-server, reporting end-to-end metrics by
// name, plus an in-process traced run that attributes time to each layer.
// See README.md in this directory; run it through run.sh, which builds the
// server and this program first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type config struct {
	serverBin string
	workDir   string
	outDir    string
	seed      int64
	seconds   time.Duration
}

func main() {
	var cfg config
	workloadName := flag.String("workload", "", "workload to run (empty = all four, end-to-end then traced)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the dataset and every client's op sequence")
	seconds := flag.Int("seconds", 20, "measured seconds per end-to-end run; the traced run's op count scales with it")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end run against the live server, 1 = in-process traced run (per-layer metrics)")
	aa := flag.Bool("aa", false, "run every end-to-end workload twice on this build and compare within the bounds of BENCHMARK.json")
	flag.StringVar(&cfg.serverBin, "server", "", "path to the built gsacs-server binary (run.sh supplies it)")
	flag.StringVar(&cfg.workDir, "workdir", "", "scratch directory for datasets, data dirs and server logs (run.sh supplies it)")
	flag.StringVar(&cfg.outDir, "out", "", "directory for trace-<workload>.json (run.sh supplies bench/out)")
	flag.Parse()
	cfg.seconds = time.Duration(*seconds) * time.Second

	if err := run(&cfg, *workloadName, *trace, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg *config, workloadName string, trace int, aa bool) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	for _, p := range []*string{&cfg.serverBin, &cfg.workDir, &cfg.outDir} {
		if *p == "" {
			return fmt.Errorf("-server, -workdir and -out are required (use bench/run.sh)")
		}
		abs, err := filepath.Abs(*p)
		if err != nil {
			return err
		}
		*p = abs
	}
	for _, d := range []string{cfg.workDir, cfg.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	printHeader(cfg)

	worlds := map[string]*world{}
	worldFor := func(wl *workload) (*world, error) {
		if w, ok := worlds[wl.dataset]; ok {
			return w, nil
		}
		w, err := newWorld(datasetSeed, wl.dataset)
		if err != nil {
			return nil, err
		}
		fmt.Printf("dataset %s (scenario seed %d): %d sites, %d streams, %d triples, %d bytes of N-Triples\n",
			w.size, datasetSeed, len(w.sites), len(w.streams), w.truth.Len(), len(w.dataNT))
		worlds[wl.dataset] = w
		return w, nil
	}

	if aa {
		return runAA(cfg, worldFor)
	}
	if workloadName == "" {
		failed := 0
		for i := range workloads {
			w, err := worldFor(&workloads[i])
			if err != nil {
				return err
			}
			for _, runner := range []func(*config, *workload, *world) (*report, error){runE2E, runTraced} {
				rep, err := runner(cfg, &workloads[i], w)
				if err != nil {
					return err
				}
				rep.print(os.Stdout)
				failed += rep.failed
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d ops failed", failed)
		}
		return nil
	}

	wl := findWorkload(workloadName)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", workloadName)
	}
	w, err := worldFor(wl)
	if err != nil {
		return err
	}
	runner, names := runE2E, e2eNames
	if trace != 0 {
		runner, names = runTraced, layerNames
	}
	rep, err := runner(cfg, wl, w)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	line, err := rep.resultLine(names)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// printHeader states what a reader needs to compare two runs: the box, the
// toolchain, the commit and the seed.
func printHeader(cfg *config) {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("G-SACS bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d clients=%d (closed loop, one keep-alive connection each)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, cfg.seed, int(cfg.seconds.Seconds()), clients)
}

// benchmarkFile is the part of BENCHMARK.json -aa needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs every end-to-end workload twice on the same build and fails
// when any bounded metric differs between the two runs, in either direction,
// by more than its bound.
func runAA(cfg *config, worldFor func(*workload) (*world, error)) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return err
	}
	bound := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bound[m.Name] = m.Bound
	}
	var pairs [][2]*report
	for i := range workloads {
		w, err := worldFor(&workloads[i])
		if err != nil {
			return err
		}
		var pair [2]*report
		for j := range pair {
			if pair[j], err = runE2E(cfg, &workloads[i], w); err != nil {
				return err
			}
			pair[j].print(os.Stdout)
		}
		pairs = append(pairs, pair)
	}
	fmt.Printf("\n== A/A: same build, same seed, run twice\n%-14s %-26s %12s %12s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	over := 0
	for _, pair := range pairs {
		for _, a := range pair[0].metrics {
			b, ok := pair[1].get(a.name)
			if !ok {
				continue
			}
			diff := (b.value - a.value) / a.value
			limit, bounded := bound[a.name]
			verdict := ""
			if bounded && math.Abs(diff) > limit {
				verdict = "  OVER"
				over++
			}
			boundCol := "-"
			if bounded {
				boundCol = fmt.Sprintf("%.0f%%", limit*100)
			}
			fmt.Printf("%-14s %-26s %12.4f %12.4f %+7.1f%% %8s%s\n", pair[0].workload, a.name, a.value, b.value, diff*100, boundCol, verdict)
		}
		if pair[0].failed+pair[1].failed > 0 {
			over++
		}
	}
	if over > 0 {
		return fmt.Errorf("A/A: %d metric×workload pairs differ by more than their bound (or ops failed)", over)
	}
	return nil
}
