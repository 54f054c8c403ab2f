package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/ntriples"
	"repro/internal/obs"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/turtle"
	"repro/internal/wal"
)

// Layer probes: the per-layer numbers no request path isolates — loading,
// cold view builds, heap held, the store and WAL primitives, the reasoner's
// lookups, admission and observability overhead. Each runs on the workload's
// own dataset, single goroutine.

// heapAfterGC is the live heap once garbage is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapDelta is how much live heap build's result holds, in bytes.
func heapDelta[T any](build func() T) (T, float64) {
	before := heapAfterGC()
	v := build()
	after := heapAfterGC()
	runtime.KeepAlive(v)
	return v, float64(after) - float64(before)
}

// perCallUS times fn in batches and returns the median batch's µs per call:
// a single call of a sub-microsecond function is below the clock's
// resolution.
func perCallUS(batches, perBatch int, fn func(i int)) float64 {
	d := make([]float64, batches)
	for b := range d {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			fn(b*perBatch + i)
		}
		d[b] = time.Since(start).Seconds() * 1e6 / float64(perBatch)
	}
	return median(d)
}

// load parses the dataset the way server start-up does, builds the base
// store and the reasoner, and reports what each costs.
func (t *traced) load(rep *report) error {
	n := float64(t.w.truth.Len())
	doc := string(t.w.dataNT)

	// One-shot timings right after a large allocation mostly measure the
	// collector, so each loading step runs three times and reports the median.
	var err error
	perTriple := func(fn func() error) float64 {
		d := make([]float64, 3)
		for i := range d {
			start := time.Now()
			if e := fn(); e != nil {
				err = e
			}
			d[i] = time.Since(start).Seconds() * 1e6 / n
		}
		return median(d)
	}
	rep.add("ntriples.parse_us_per_triple", perTriple(func() error { _, e := ntriples.ParseString(doc); return e }), "us", int(n))
	// The server loads -data through the Turtle parser (N-Triples is a
	// subset), so this is the parse setup_s pays.
	var g *rdf.Graph
	rep.add("turtle.parse_us_per_triple", perTriple(func() (e error) { g, e = turtle.ParseString(doc); return e }), "us", int(n))
	if err != nil {
		return err
	}
	t.triples = g.Triples()
	rep.add("turtle.write_us_per_triple", perTriple(func() error { return turtle.Write(io.Discard, g, nil) }), "us", int(n))
	if err != nil {
		return err
	}

	var base *store.Store
	var heap float64
	var addSeconds []float64
	for i := 0; i < 3; i++ {
		base, heap = heapDelta(func() *store.Store {
			st := store.New()
			start := time.Now()
			st.AddAll(t.triples)
			addSeconds = append(addSeconds, time.Since(start).Seconds())
			return st
		})
	}
	t.base = base
	rep.add("store.addall_triples_per_s", n/median(addSeconds), "1/s", int(n))
	rep.add("store.heap_bytes_per_triple", heap/n, "B", int(n))
	rep.add("store.dict_terms", float64(base.DictLen()), "count", 0)

	var matSeconds float64
	r, heap := heapDelta(func() *owl.Reasoner {
		start := time.Now()
		r := gsacs.NewOWLReasoner(base, grdf.Ontology(), seconto.Ontology())
		matSeconds = time.Since(start).Seconds()
		return r
	})
	t.reasoner = r
	rep.add("owl.materialize_ms", matSeconds*1e3, "ms", 1)
	rep.add("owl.heap_mb", heap/(1<<20), "MB", 0)
	stats := r.Stats()
	rep.add("owl.inferred_per_asserted", float64(stats.Inferred)/float64(max(stats.Asserted, 1)), "ratio", stats.Asserted)
	sites := t.w.sites
	rep.add("owl.typesof_us", perCallUS(20, 500, func(i int) { r.TypesOf(sites[i%len(sites)].IRI) }), "us", 20*500)
	rep.add("owl.issubclassof_us", perCallUS(20, 2000, func(int) { r.IsSubClassOf(datagen.ChemSite, grdf.Feature) }), "us", 20*2000)
	return nil
}

// probeLayers measures the remaining layers on fresh copies of the dataset.
func (t *traced) probeLayers(rep *report, observed *gsacs.Engine) error {
	ctx := context.Background()

	// store: a full scan, and single and batched in-memory mutations.
	seen := 0
	scanUS := perCallUS(5, 1, func(int) {
		seen = 0
		t.base.ForEachMatch(nil, nil, nil, func(rdf.Triple) bool { seen++; return true })
	})
	rep.add("store.match_ns_per_triple", scanUS*1e3/float64(max(seen, 1)), "ns", seen)

	const writes = 200
	var err error
	keep := func(_ any, e error) {
		if e != nil {
			err = e
		}
	}
	mem := t.base.Snapshot()
	memUS := perCallUS(writes, 1, func(i int) { keep(mem.Apply(t.renameOp(i))) })
	rep.add("store.apply_us", memUS, "us", writes)
	batched := t.base.Snapshot()
	rep.add("store.applybatch_us_per_op", perCallUS(writes/4, 1, func(i int) {
		keep(batched.ApplyBatch([]store.Op{t.renameOp(4 * i), t.renameOp(4*i + 1), t.renameOp(4*i + 2), t.renameOp(4*i + 3)}))
	})/4, "us", writes/4)

	// wal: the same single mutations made durable at fsync=always, with
	// exact write and fsync counts from a fault-free FaultFS.
	dir := filepath.Join(t.dir, "wal-probe")
	fs := wal.NewFaultFS(nil, wal.FaultConfig{})
	durable := store.New()
	repo, oerr := wal.Open(durable, wal.Options{Dir: dir, FS: fs, Fsync: wal.FsyncAlways})
	if oerr != nil {
		return oerr
	}
	durable.AddAll(t.triples)
	disk0, err := dirBytes(dir)
	if err != nil {
		return err
	}
	w0, s0 := fs.Counts()
	userBytes := 0
	walUS := perCallUS(writes, 1, func(i int) {
		op := t.renameOp(i)
		userBytes += len(op.Triples[0].String()) + len(op.Triples[1].String()) + 2
		keep(durable.Apply(op))
	})
	if err != nil {
		return fmt.Errorf("store and wal probes: %w", err)
	}
	w1, s1 := fs.Counts()
	disk1, err := dirBytes(dir)
	if err != nil {
		return err
	}
	rep.add("wal.commit_us", walUS-memUS, "us", writes)
	rep.add("wal.writes_per_op", float64(w1-w0)/writes, "count", writes)
	rep.add("wal.fsyncs_per_op", float64(s1-s0)/writes, "count", writes)
	rep.add("wal.bytes_per_user_byte", float64(disk1-disk0)/float64(userBytes), "ratio", writes)
	gc := durable.GroupCommitStats()
	rep.add("wal.group_mean_batch", float64(gc.Ops)/float64(max(gc.Groups, 1)), "count", int(gc.Groups))
	if err := repo.Close(); err != nil {
		return err
	}
	reopened, err := wal.Open(store.New(), wal.Options{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		return err
	}
	rep.add("wal.open_replay_ms", reopened.Info().Duration.Seconds()*1e3, "ms", reopened.Info().RecordsReplayed)
	start := time.Now()
	if err := reopened.Snapshot(); err != nil {
		return err
	}
	rep.add("wal.snapshot_ms", time.Since(start).Seconds()*1e3, "ms", 1)
	if err := reopened.Close(); err != nil {
		return err
	}

	// admission: an uncontended acquire and release.
	ctrl := admission.NewController(admission.Config{})
	rep.add("admission.acquire_us", perCallUS(20, 2000, func(int) {
		if release, err := ctrl.Admit(ctx, admission.ClassQuery, admission.Normal); err == nil {
			release()
		}
	}), "us", 20*2000)

	// obs: the listing query on the replay stack's engine (registry and
	// workload table attached) under a live trace, over the same query on an
	// engine with none — the standing 5% budget of E16/E21.
	const reps = 40
	tracer := obs.NewTracer(256)
	bare := gsacs.New(t.w.policies, t.base.Snapshot(), gsacs.Options{Reasoner: t.reasoner, CacheSize: 32})
	observed.ViewCtx(ctx, datagen.RoleEmergency, seconto.ActionView)
	bare.ViewCtx(ctx, datagen.RoleEmergency, seconto.ActionView)
	// The two alternate call by call, so heap growth and GC drift over the
	// probe hit both alike.
	var bareUS, withObs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		bare.QueryCtx(ctx, datagen.RoleEmergency, seconto.ActionView, listQuery)
		bareUS = append(bareUS, time.Since(start).Seconds()*1e6)
		start = time.Now()
		tctx, sp := tracer.StartTrace(ctx, "bench", "")
		observed.QueryCtx(tctx, datagen.RoleEmergency, seconto.ActionView, listQuery)
		sp.End()
		withObs = append(withObs, time.Since(start).Seconds()*1e6)
	}
	rep.add("obs.overhead_ratio", median(withObs)/median(bareUS), "ratio", reps)
	return nil
}

// renameOp is the i-th single-triple update the store and WAL probes apply:
// site i's name, to a value that differs every round over the sites.
func (t *traced) renameOp(i int) store.Op {
	site := i % len(t.w.sites)
	round := i / len(t.w.sites)
	iri := t.w.sites[site].IRI
	return store.Op{Kind: store.OpReplace, MustExist: true, Triples: []rdf.Triple{
		rdf.T(iri, datagen.HasSiteName, rdf.NewString(t.w.siteName(site, round))),
		rdf.T(iri, datagen.HasSiteName, rdf.NewString(t.w.siteName(site, round+1))),
	}}
}
