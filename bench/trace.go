package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/obs"
	wltable "repro/internal/obs/workload"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
	"repro/internal/wal"
)

// The traced run: per-layer numbers, in-process, single goroutine, measured
// from outside the layers by *depth replay*. The same op list is executed at
// successive depths — over loopback, through gsacs.Server.ServeHTTP, through
// the Engine entry points, then through the parts an Engine call is made of —
// each call wrapped in a span. A layer's self time is its span median minus
// the medians of the spans one depth below. The program's own obs spans and
// grdf_* counters are deliberately not read, so the planned observability
// consolidation cannot move the ruler.

// span is one timed call into a layer. Parent is the span of the same op one
// depth up (0 for the outermost), so one op's spans form a tree.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Kind   string `json:"kind"`
	Class  string `json:"class"`
	Query  bool   `json:"query"` // the op goes through /v1/query
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. With off set it records
// nothing, which is how trace.overhead_ratio gets its untraced baseline.
type spanLog struct {
	t0    time.Time
	spans []span
	off   bool
}

// timed runs fn as a span named name for op index i and returns its ID.
func (l *spanLog) timed(name string, i int, o *op, parent int, fn func()) int {
	if l.off {
		fn()
		return 0
	}
	start := time.Since(l.t0)
	fn()
	end := time.Since(l.t0)
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Op: i, Kind: o.kind.String(), Class: classNames[o.kind.class()], Query: o.isQuery(), Name: name,
		Start: start.Nanoseconds(), End: end.Nanoseconds(),
	})
	return len(l.spans)
}

// byOp returns the duration in µs of the span named name of each op, keyed by
// op index. "name/selector" keeps only ops whose kind is selector or falls in
// the class selector ("query" = every /v1/query kind).
func (l *spanLog) byOp(name string) map[int]float64 {
	name, selector, _ := strings.Cut(name, "/")
	out := map[int]float64{}
	for _, s := range l.spans {
		if s.Name == name && (selector == "" || s.Kind == selector || s.Class == selector || selector == "query" && s.Query) {
			out[s.Op] = float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

// stack is the in-process twin of a gsacs-server started with default
// flags: same engine options, audit ring, admission controller, tracer, SLO
// engine and workload table, so ServeHTTP does the work the live server does.
type stack struct {
	data    *store.Store
	engine  *gsacs.Engine
	handler http.Handler
	repo    *wal.Repository // nil unless durable
	fs      *wal.FaultFS
	walDir  string
}

// traced holds what every depth of one traced run shares.
type traced struct {
	cfg      *config
	w        *world
	wl       *workload
	dir      string
	triples  []rdf.Triple // the dataset as the server parses it
	base     *store.Store // triples loaded once; in-memory stacks snapshot it
	reasoner *owl.Reasoner
	walDirs  int
}

func (t *traced) newStack() (*stack, error) {
	s := &stack{}
	reg := obs.NewRegistry()
	logger := obs.NewLogger(io.Discard, nil)
	if t.wl.durable {
		// As cmd/gsacs-server does on first boot: open the log over an empty
		// store, seed the dataset through it, journal the audit trail.
		t.walDirs++
		s.walDir = filepath.Join(t.dir, fmt.Sprintf("wal-%d", t.walDirs))
		s.fs = wal.NewFaultFS(nil, wal.FaultConfig{})
		s.data = store.New().Instrument(reg)
		repo, err := wal.Open(s.data, wal.Options{Dir: s.walDir, FS: s.fs, SnapshotEvery: 10000, Metrics: reg})
		if err != nil {
			return nil, err
		}
		s.repo = repo
		s.data.AddAll(t.triples)
	} else {
		s.data = t.base.Snapshot().Instrument(reg)
	}
	s.data.SetCommitBatching(128, 500*time.Microsecond)
	s.engine = gsacs.New(t.w.policies, s.data, gsacs.Options{Reasoner: t.reasoner, CacheSize: 32, Metrics: reg})
	s.engine.EnableAudit(256)
	if s.repo != nil {
		s.engine.SetAuditPersist(s.repo.AppendAudit)
	}
	slo := obs.NewSLOEngine(obs.SLOConfig{LatencyTarget: 100 * time.Millisecond, AvailabilityTarget: 0.999})
	s.handler = gsacs.NewServer(s.engine, nil,
		gsacs.WithMetrics(reg), gsacs.WithLogger(logger),
		gsacs.WithQueryTimeout(30*time.Second), gsacs.WithMaxBodyBytes(1<<20),
		gsacs.WithTracer(obs.NewTracer(256).Instrument(reg)), gsacs.WithSLO(slo),
		gsacs.WithWorkload(wltable.New(wltable.Config{Capacity: 256, Registry: reg, Logger: logger})),
		gsacs.WithAdmission(gsacs.AdmissionConfig{
			Controller: admission.NewController(admission.Config{
				MaxQueue: 128, QueueDeadline: 100 * time.Millisecond, LatencyTarget: 50 * time.Millisecond,
				Signal: admission.DefaultSignal(slo, reg), Metrics: reg,
			}),
			PriorityHeader: "X-Priority",
		}))
	return s, nil
}

func (s *stack) close() {
	if s.repo != nil {
		s.repo.Close()
	}
}

// warm fills every reader's role view, as the end-to-end warm-up does, and
// returns what the builds cost and hold.
func (s *stack) warm() (buildMS, triples float64) {
	for _, role := range anyReader {
		start := time.Now()
		view := s.engine.ViewCtx(context.Background(), role, seconto.ActionView)
		buildMS += time.Since(start).Seconds() * 1e3
		triples += float64(view.Len())
	}
	return buildMS, triples
}

// probeOps is how many extra ops of every kind follow the workload's own
// sequence in the replay list, so each per-kind span has samples on every
// workload, including the kinds its mix leaves out.
const probeOps = 5

// passes is how many times the replay list is executed: over loopback,
// through ServeHTTP untraced and traced, through the Engine entry points, and
// through their parts.
const passes = 5

// replayList is the first n ops of the workload's seeded sequence followed
// by probeOps ops of each kind. The sequence is the same on every pass. The
// write probes of pass p touch their own slice of the sites (those ≡ p+1 mod
// passes+1; the sequence writes those ≡ 0), so the passes of a read-only
// workload can share one warmed stack without one pass's renames
// invalidating the "old" triples of the next.
func (t *traced) replayList(n, pass int) (ops []*op) {
	seq := newOpGen(t.w, t.wl, t.cfg.seed, 0, passes+1)
	for i := 0; i < n; i++ {
		o := seq.next()
		seq.ack(o)
		ops = append(ops, o)
	}
	batch := max(t.wl.batch, 1)
	for k := opKind(0); k < numKinds; k++ {
		role := canonicalRole(k)
		if k == opWrite {
			role = writer
		}
		g := newOpGen(t.w, &workload{batch: batch, mix: []mixEntry{{k, 1, role}}}, t.cfg.seed+int64(k), pass+1, passes+1)
		for i := 0; i < probeOps; i++ {
			o := g.next()
			g.ack(o)
			ops = append(ops, o)
		}
	}
	return ops
}

func toMutationOps(muts []mutation) []gsacs.MutationOp {
	out := make([]gsacs.MutationOp, len(muts))
	for i, m := range muts {
		kind := store.OpAdd
		switch m.kind {
		case mutDelete:
			kind = store.OpRemove
		case mutUpdate:
			kind = store.OpReplace
		}
		out[i] = gsacs.MutationOp{Kind: kind, Triples: m.triples}
	}
	return out
}

func toStoreOps(muts []mutation) []store.Op {
	out := make([]store.Op, len(muts))
	for i, m := range toMutationOps(muts) {
		out[i] = store.Op{Kind: m.Kind, Triples: m.Triples, MustExist: m.Kind == store.OpReplace}
	}
	return out
}

// httpResult is what the HTTP depths learn about the replayed sequence.
type httpResult struct {
	attempted, failed int
	sheds             int
	respBytes         int64
	failures          []string
	wall              time.Duration // time inside do, span bookkeeping included
}

// replayHTTP executes ops[lo:hi] through do (loopback or ServeHTTP), checks
// every answer against the oracle and records one span per op into ids.
func (t *traced) replayHTTP(log *spanLog, name string, ops []*op, lo, hi int, ids []int, parent func(p, i int) int, pass int, do func(*op) (int, []byte)) httpResult {
	var res httpResult
	for i := lo; i < hi; i++ {
		o := ops[i]
		var status int
		var body []byte
		begin := time.Now()
		ids[i] = log.timed(name, i, o, parent(pass, i), func() { status, body = do(o) })
		res.wall += time.Since(begin)
		res.attempted++
		res.respBytes += int64(len(body))
		if status == http.StatusTooManyRequests {
			res.sheds++
		}
		err := t.w.check(o, status, body)
		if err == nil && o.kind == opView && !log.off && pass > 0 {
			// Once per op is enough: on the traced ServeHTTP pass.
			err = t.w.checkViewExact(o.role, body)
		}
		if err != nil {
			res.failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, fmt.Sprintf("%s %s: %v", name, o, err))
			}
		}
	}
	return res
}

// checkViewExact parses a /v1/view body and compares it, triple for triple,
// with the view ground truth and List 8 predict for role. MainRep's view
// holds no property a write op touches, so it is the same at every
// generation.
func (w *world) checkViewExact(role rdf.IRI, body []byte) error {
	g, err := turtle.ParseString(string(body))
	if err != nil {
		return err
	}
	got := make([]string, 0, g.Len())
	for _, t := range g.Triples() {
		got = append(got, t.String())
	}
	if d := diffLines(sortedUnique(got), w.expectedView(role)); d != "" {
		return fmt.Errorf("view differs from List 8: %s", d)
	}
	return nil
}

func serveHTTP(w *world, h http.Handler) func(*op) (int, []byte) {
	return func(o *op) (int, []byte) {
		var req *http.Request
		if o.kind == opWrite {
			req = httptest.NewRequest(http.MethodPost, o.path(w), strings.NewReader(string(o.wire)))
		} else {
			req = httptest.NewRequest(http.MethodGet, o.path(w), nil)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
}

// layerNames are the per-layer metrics of BENCHMARK.json, in print order.
// Every workload reports every one: the replay list carries probes of each
// op kind, and the layer probes run on the workload's dataset.
var layerNames = []string{
	"http.transport_us", "http.query_self_us", "http.view_self_us", "http.mutate_self_us", "http.resp_bytes_per_op",
	"admission.acquire_us", "admission.shed_ratio",
	"gsacs.decide_us", "gsacs.view_hit_us", "gsacs.view_build_ms", "gsacs.view_hit_ratio", "gsacs.view_triples_per_role",
	"gsacs.view_heap_mb", "gsacs.query_self_us", "gsacs.filter_resource_us", "gsacs.authorize_us_per_triple",
	"sparql.parse_us", "sparql.plan_us", "sparql.eval_point_us", "sparql.eval_agg_us", "sparql.eval_list_us",
	"sparql.eval_spatial_us", "sparql.rows_scanned_per_row_out",
	"store.match_ns_per_triple", "store.addall_triples_per_s", "store.apply_us", "store.applybatch_us_per_op",
	"store.heap_bytes_per_triple", "store.dict_terms",
	"wal.commit_us", "wal.writes_per_op", "wal.fsyncs_per_op", "wal.bytes_per_user_byte", "wal.group_mean_batch",
	"wal.open_replay_ms", "wal.snapshot_ms",
	"owl.materialize_ms", "owl.inferred_per_asserted", "owl.typesof_us", "owl.issubclassof_us", "owl.heap_mb",
	"ntriples.parse_us_per_triple", "turtle.parse_us_per_triple", "turtle.write_us_per_triple",
	"obs.overhead_ratio", "trace.overhead_ratio",
}

// runTraced produces the per-layer metrics of one workload.
func runTraced(cfg *config, wl *workload, w *world) (*report, error) {
	rep := &report{workload: wl.name, kind: "per-layer"}
	dir, err := os.MkdirTemp(cfg.workDir, "traced-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := &traced{cfg: cfg, w: w, wl: wl, dir: dir}

	// Loading: the parsers, the store and the reasoner, timed as the server
	// start-up runs them. These feed setup_s.
	if err := t.load(rep); err != nil {
		return nil, err
	}

	n := max(int(float64(wl.replayOps)*cfg.seconds.Seconds()/20), 10)
	var lists [passes][]*op
	for p := range lists {
		lists[p] = t.replayList(n, p)
	}
	total := len(lists[0])
	log := &spanLog{t0: time.Now()}
	ctx := context.Background()

	// A workload whose mix writes needs the dataset back at generation zero
	// for every pass. A read-only one replays every pass on one warmed stack:
	// first everything but the write probes, then the write probes alone,
	// which need no view. The first warm-up is the cold view build, measured.
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	fresh := func() error {
		if st != nil && !wl.writes() {
			return nil
		}
		first := st == nil
		if st != nil {
			st.close()
		}
		if st, err = t.newStack(); err != nil {
			return err
		}
		if !first {
			st.warm()
			return nil
		}
		var buildMS, triples float64
		_, heap := heapDelta(func() *stack { buildMS, triples = st.warm(); return st })
		roles := float64(len(anyReader))
		rep.add("gsacs.view_build_ms", buildMS/roles, "ms", len(anyReader))
		rep.add("gsacs.view_triples_per_role", triples/roles, "count", len(anyReader))
		rep.add("gsacs.view_heap_mb", heap/(1<<20), "MB", 0)
		return nil
	}

	var (
		ids              [passes][]int // span of op i at pass p, the parent of its span at pass p+1
		hres             httpResult    // the traced ServeHTTP pass: its answers are the ones that count
		untraced         time.Duration // time inside ServeHTTP on the untraced pass
		hits0, misses0   uint64
		hitRatio         float64
		scanned, rowsOut int64
	)
	for p := range ids {
		ids[p] = make([]int, total)
	}
	parent := func(p, i int) int {
		if p == 0 {
			return 0
		}
		if p == 2 {
			return ids[0][i] // both ServeHTTP passes hang off the loopback pass
		}
		return ids[p-1][i]
	}
	runPass := func(p, lo, hi int) error {
		ops := lists[p]
		switch p {
		case 0: // loopback: a real listener and one keep-alive client
			srv := httptest.NewServer(st.handler)
			defer srv.Close()
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}, Timeout: 60 * time.Second}
			defer hc.CloseIdleConnections()
			t.replayHTTP(log, "client.roundtrip", ops, lo, hi, ids[0], parent, 0, func(o *op) (int, []byte) {
				var resp *http.Response
				var err error
				if o.kind == opWrite {
					resp, err = hc.Post(srv.URL+o.path(w), "application/json", strings.NewReader(string(o.wire)))
				} else {
					resp, err = hc.Get(srv.URL + o.path(w))
				}
				if err != nil {
					return 0, []byte(err.Error())
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, body
			})
		case 1: // ServeHTTP on a recorder, untraced: the baseline of trace.overhead_ratio
			untraced += t.replayHTTP(&spanLog{off: true}, "http.serve", ops, lo, hi, ids[1], parent, 1, serveHTTP(w, st.handler)).wall
		case 2: // ServeHTTP on a recorder, traced
			r := t.replayHTTP(log, "http.serve", ops, lo, hi, ids[2], parent, 2, serveHTTP(w, st.handler))
			hres.attempted += r.attempted
			hres.failed += r.failed
			hres.sheds += r.sheds
			hres.respBytes += r.respBytes
			hres.failures = append(hres.failures, r.failures...)
			hres.wall += r.wall
		case 3: // the Engine entry points
			if lo == 0 {
				hits0, misses0 = st.engine.Cache().Stats()
			}
			for i := lo; i < hi; i++ {
				o := ops[i]
				if i == n {
					hits, misses := st.engine.Cache().Stats()
					// A sequence that never needs a view has missed none.
					hitRatio = 1
					if lookups := hits - hits0 + misses - misses0; lookups > 0 {
						hitRatio = float64(hits-hits0) / float64(lookups)
					}
				}
				var err error
				ids[3][i] = log.timed(engineSpan(o), i, o, parent(3, i), func() {
					switch {
					case o.isQuery():
						_, err = st.engine.QueryCtx(ctx, o.role, seconto.ActionView, o.query)
					case o.kind == opView:
						st.engine.ViewCtx(ctx, o.role, seconto.ActionView)
					case o.kind == opPointResource:
						var acc gsacs.Access
						acc, err = st.engine.DecideCtx(ctx, o.role, seconto.ActionView, w.sites[o.site].IRI)
						st.engine.FilterResource(w.sites[o.site].IRI, acc)
					default:
						_, err = st.engine.MutateCtx(ctx, o.role, toMutationOps(o.muts))
					}
				})
				if err != nil {
					return fmt.Errorf("engine pass, %s: %w", o, err)
				}
			}
		case 4: // the parts an Engine call is made of
			for i := lo; i < hi; i++ {
				o, up := ops[i], parent(4, i)
				var err error
				switch {
				case o.isQuery():
					var q *sparql.Query
					var view *store.Store
					log.timed("sparql.parse", i, o, up, func() { q, err = sparql.ParseQuery(o.query, nil) })
					if err != nil {
						return err
					}
					log.timed("gsacs.view", i, o, up, func() { view = st.engine.ViewCtx(ctx, o.role, seconto.ActionView) })
					eng := sparql.NewEngine(view)
					grdf.RegisterSpatialFuncs(eng, view)
					eng.SetStatsSink(func(es sparql.EvalStats) {
						scanned += es.RowsScanned
						rowsOut += max(es.Solutions, 1)
					})
					log.timed("sparql.explain", i, o, up, func() { _, err = eng.Explain(o.query) })
					if err != nil {
						return err
					}
					log.timed("sparql.eval", i, o, up, func() { _, err = eng.Eval(q) })
				case o.kind == opView:
					log.timed("gsacs.view", i, o, up, func() { st.engine.ViewCtx(ctx, o.role, seconto.ActionView) })
				case o.kind == opPointResource:
					var acc gsacs.Access
					log.timed("gsacs.decide", i, o, up, func() {
						acc, err = st.engine.DecideCtx(ctx, o.role, seconto.ActionView, w.sites[o.site].IRI)
					})
					log.timed("gsacs.filter_resource", i, o, up, func() { st.engine.FilterResource(w.sites[o.site].IRI, acc) })
				default:
					log.timed("store.applybatch", i, o, up, func() { _, err = st.data.ApplyBatch(toStoreOps(o.muts)) })
				}
				if err != nil {
					return fmt.Errorf("parts pass, %s: %w", o, err)
				}
			}
		}
		return nil
	}
	phases := [][2]int{{0, total}}
	if !wl.writes() {
		phases = [][2]int{{0, total - probeOps}, {total - probeOps, total}}
	}
	for _, ph := range phases {
		for p := 0; p < passes; p++ {
			if err := fresh(); err != nil {
				return nil, err
			}
			if err := runPass(p, ph[0], ph[1]); err != nil {
				return nil, err
			}
		}
	}
	rep.attempted, rep.failed = hres.attempted, hres.failed
	for _, f := range hres.failures {
		rep.notes = append(rep.notes, "FAILED "+f)
	}
	ops, seqLen := lists[0], n

	// Self times, paired per op: the span of op i at one pass minus the spans
	// of the same op one pass down, then the median over ops. (Medians of
	// unpaired spans do not subtract when a class mixes cheap and costly
	// kinds.)
	self := func(outer string, inner ...string) (float64, int) {
		below := make([]map[int]float64, len(inner))
		for k, name := range inner {
			below[k] = log.byOp(name)
		}
		var d []float64
		for i, us := range log.byOp(outer) {
			for _, b := range below {
				us -= b[i]
			}
			d = append(d, us)
		}
		return median(d), len(d)
	}
	add := func(metric, outer string, inner ...string) {
		us, n := self(outer, inner...)
		rep.add(metric, us, "us", n)
	}
	add("http.transport_us", "client.roundtrip", "http.serve")
	add("http.query_self_us", "http.serve/query", "engine.query")
	add("http.view_self_us", "http.serve/view", "engine.view")
	add("http.mutate_self_us", "http.serve/write", "engine.mutate")
	rep.add("http.resp_bytes_per_op", float64(hres.respBytes)/float64(hres.attempted), "B", hres.attempted)
	rep.add("admission.shed_ratio", float64(hres.sheds)/float64(hres.attempted), "ratio", hres.attempted)
	add("gsacs.decide_us", "gsacs.decide")
	add("gsacs.view_hit_us", "gsacs.view")
	rep.add("gsacs.view_hit_ratio", hitRatio, "ratio", seqLen)
	add("gsacs.query_self_us", "engine.query", "gsacs.view", "sparql.parse", "sparql.eval")
	add("gsacs.filter_resource_us", "gsacs.filter_resource")
	var perTriple []float64
	applied := log.byOp("store.applybatch")
	for i, us := range log.byOp("engine.mutate") {
		triples := 0
		for _, m := range ops[i].muts {
			triples += len(m.triples)
		}
		perTriple = append(perTriple, (us-applied[i])/float64(triples))
	}
	rep.add("gsacs.authorize_us_per_triple", median(perTriple), "us", len(perTriple))
	add("sparql.parse_us", "sparql.parse")
	add("sparql.plan_us", "sparql.explain", "sparql.parse")
	add("sparql.eval_point_us", "sparql.eval/point")
	add("sparql.eval_agg_us", "sparql.eval/agg")
	add("sparql.eval_list_us", "sparql.eval/list")
	add("sparql.eval_spatial_us", "sparql.eval/spatial")
	rep.add("sparql.rows_scanned_per_row_out", float64(scanned)/float64(max(rowsOut, 1)), "ratio", len(log.byOp("sparql.eval")))
	rep.add("trace.overhead_ratio", hres.wall.Seconds()/untraced.Seconds(), "ratio", len(ops))

	// Layer probes: what no request path isolates.
	if err := t.probeLayers(rep, st.engine); err != nil {
		return nil, err
	}

	// Print in the declared order.
	order := map[string]int{}
	for i, name := range layerNames {
		order[name] = i
	}
	sort.SliceStable(rep.metrics, func(i, j int) bool { return order[rep.metrics[i].name] < order[rep.metrics[j].name] })

	rep.notes = append(rep.notes, fmt.Sprintf("depth replay of %d ops: the first %d of the seeded sequence + %d probes of each of %d kinds; single goroutine; %d spans",
		len(ops), seqLen, probeOps, int(numKinds), len(log.spans)))
	out := filepath.Join(cfg.outDir, "trace-"+wl.name+".json")
	if err := writeTrace(out, wl.name, cfg.seed, log.spans); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, "spans written to "+out)
	rep.correct = rep.failed == 0
	return rep, nil
}

func engineSpan(o *op) string {
	switch {
	case o.isQuery():
		return "engine.query"
	case o.kind == opView:
		return "engine.view"
	case o.kind == opPointResource:
		return "engine.resource"
	}
	return "engine.mutate"
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
