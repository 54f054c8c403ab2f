package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/turtle"
)

// Dataset sizes. S is the BENCH_LOAD/E17 reference point every older BENCH
// file used; M is where a role-view rebuild costs tens of milliseconds; L is
// the first step toward the KnowWhereGraph scale PAPERS.md points at and the
// largest the driver's run-time cap leaves room for.
var datasetSites = map[string]int{"S": 12, "M": 450, "L": 3000}

// datasetSeed generates the scenario of every run; it is gsacs-server's own
// default -seed. --seed drives the op sequences (mix draws, Zipf site picks,
// roles, streams, write targets) but not the data: twelve sites draw one to
// three chemicals each, and that draw alone moved ops_per_s on read_small by
// ±10% between seeds — dataset luck, not the program. The oracle does not
// depend on the choice; the tests run it on other scenario seeds.
const datasetSeed = 7

// spatialRadiusFt is the blast radius of the spatial op: one mile in the
// TX83-NCF feet the generator uses.
const spatialRadiusFt = 5280

// roleWriter is the role the harness adds to the Sec. 7.1 policy set so the
// write workloads have someone allowed to mutate grdf:Feature resources.
const roleWriter rdf.IRI = seconto.NS + "Writer"

// world is one generated scenario plus everything the oracle needs to know
// about it. All of it derives from the seed; the server only ever sees the
// two serialized files.
type world struct {
	size     string
	sites    []datagen.Site
	streams  []datagen.Stream
	truth    *store.Store
	policies *seconto.Set

	dataNT    []byte
	policyTTL []byte

	// Oracle tables, all from generator ground truth.
	siteIndex map[string]int // "<iri>" -> index into sites
	chemRows  int            // Σ chemicals per site
	phones    []string       // original app:hasContactPhone per site
	near      [][]string     // per stream: "<iri>" of sites within spatialRadiusFt
}

func newWorld(seed int64, size string) (*world, error) {
	n, ok := datasetSites[size]
	if !ok {
		return nil, fmt.Errorf("unknown dataset size %q", size)
	}
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: seed, Sites: n})
	for _, action := range []rdf.IRI{seconto.ActionView, seconto.ActionModify, seconto.ActionDelete} {
		sc.Policies.Rules = append(sc.Policies.Rules, seconto.Rule{
			ID:       rdf.IRI(seconto.NS + "Writer" + action.LocalName()),
			Subject:  roleWriter,
			Action:   action,
			Resource: grdf.Feature,
			Permit:   true,
		})
	}
	w := &world{
		size:      size,
		sites:     sc.Chemical.Sites,
		streams:   sc.Hydrology.Streams,
		truth:     sc.Merged,
		policies:  sc.Policies,
		siteIndex: make(map[string]int, n),
		phones:    make([]string, n),
	}
	var nt, ttl bytes.Buffer
	if err := ntriples.Write(&nt, sc.Merged.Graph()); err != nil {
		return nil, err
	}
	if err := turtle.Write(&ttl, sc.Policies.ToGraph(), nil); err != nil {
		return nil, err
	}
	w.dataNT, w.policyTTL = nt.Bytes(), ttl.Bytes()

	for i, s := range w.sites {
		w.siteIndex[s.IRI.String()] = i
		w.chemRows += len(s.Chemical)
		phone, ok := sc.Chemical.Store.FirstObject(s.IRI, datagen.HasContactPhone)
		if !ok {
			return nil, fmt.Errorf("site %s has no contact phone", s.IRI)
		}
		w.phones[i] = phone.(rdf.Literal).Value
	}
	w.near = make([][]string, len(w.streams))
	for k, st := range w.streams {
		for _, s := range w.sites {
			if geom.Distance(s.Bounds, st.Geometry) < spatialRadiusFt {
				w.near[k] = append(w.near[k], s.IRI.String())
			}
		}
	}
	return w, nil
}

// writeFiles puts the dataset and policy files where the server can load them.
func (w *world) writeFiles(dir string) (data, policies string, err error) {
	data = filepath.Join(dir, "data-"+w.size+".nt")
	policies = filepath.Join(dir, "policies.ttl")
	if err = os.WriteFile(data, w.dataNT, 0o644); err != nil {
		return "", "", err
	}
	if err = os.WriteFile(policies, w.policyTTL, 0o644); err != nil {
		return "", "", err
	}
	return data, policies, nil
}
