// Command gsacs-server runs the Fig. 3 secure-GRDF middleware over the
// Section 7.1 scenario (or user-supplied data and policies) and serves the
// G-SACS HTTP API (README "HTTP API v1"; routeTable in internal/gsacs is the
// route list). Every response carries an X-Trace-Id header; the same ID
// appears on every structured (JSON, stderr) log line the request produced.
//
// A process is one of four things, derived once from its flags (config.role;
// README "Server flags" lists them all) and deciding everything assemble
// builds:
//
//   - standalone: serves the dataset from memory; mutations are lost on exit.
//   - leader (-data-dir): every authorized mutation is journaled to a
//     write-ahead log before it is acknowledged, and a restart recovers to
//     exactly the acknowledged state. It listens at once and answers 503
//     {"code":"recovering"} on every route except /healthz, /metrics and the
//     profiler until recovery completes; the first start against an empty
//     directory seeds the dataset through the log. Followers pull its WAL
//     (README "Durability & crash recovery", "Replication & failover").
//   - follower (-follow): replicates the leader into an empty store, serves
//     reads, answers mutations with 421 and a Location naming the leader,
//     and flips /healthz to 503 "lagging" whenever it cannot prove itself
//     caught up within -max-replica-lag.
//   - router (-source): loads the policies, holds no data, and forwards each
//     /v1/query to one of its -source replicas, moving on past a failed one
//     with per-replica retries and circuit breakers; the replica's answer
//     goes back as it came (README "Routing & failover").
//
// SIGINT and SIGTERM drain in-flight requests for up to 10s, then close the
// log cleanly.
//
// Usage:
//
//	gsacs-server -addr :8080                       # built-in scenario
//	gsacs-server -data world.ttl -policies p.ttl   # custom dataset
//	gsacs-server -data-dir /var/lib/gsacs -fsync always   # durable leader
//	gsacs-server -follow http://leader:8080 -max-replica-lag 5s  # read replica
//	gsacs-server -source http://replica1:8081 \
//	             -source http://replica2:8082       # query router
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/buildinfo"
	"repro/internal/datagen"
	"repro/internal/federation"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/workload"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/turtle"
	"repro/internal/wal"
)

func main() {
	var cfg config
	cfg.register(flag.CommandLine)
	flag.Parse()
	if cfg.version {
		buildinfo.Print(os.Stdout, "gsacs-server")
		return
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "gsacs-server: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, cfg.logLevel)
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "gsacs-server: %v\n", err)
		os.Exit(1)
	}

	app, err := assemble(&cfg, logger)
	if err != nil {
		fatal(err)
	}
	// Bind before recovery: clients get 503 "recovering" rather than
	// connection refused, and readiness probes can watch the transition.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fatal(err)
	}
	if cfg.addrFile != "" {
		if err := os.WriteFile(cfg.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(fmt.Errorf("write -addr-file: %w", err))
		}
	}
	logger.Info("gsacs-server listening", "addr", ln.Addr().String(), "role", cfg.role(),
		"audit_capacity", cfg.auditCap, "pprof", cfg.pprof,
		"replicas", len(cfg.sources), "admission", cfg.admissionOn,
		"drain_timeout", drainTimeout.String())
	app.start()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	srv := &http.Server{Addr: cfg.addr, Handler: app.handler, ReadHeaderTimeout: 5 * time.Second}
	serveErr := serve(srv, ln, stop, drainTimeout, logger)
	// Drain finished (or failed): stop replication first, then flush and
	// close the log so the final fsync state on disk matches what clients
	// were told.
	app.close()
	if serveErr != nil {
		os.Exit(1)
	}
}

// assembly is a configured server: the handler, and the background work
// behind it.
type assembly struct {
	handler http.Handler
	// start launches what must not run before the listener is bound (durable
	// recovery, the replication loop, the profiler); close stops it and
	// closes the log. close is safe without start.
	start, close func()
}

// assemble builds the server cfg describes. The role decides, in the one
// switch below, what is loaded, which store the engine serves, when a
// reasoner is materialized, what gates readiness and which replication
// surface is mounted; everything after the switch is role-independent.
func assemble(cfg *config, logger *slog.Logger) (*assembly, error) {
	reg := obs.NewRegistry()
	buildinfo.Register(reg)
	tracer := obs.NewTracer(cfg.traceBuffer).Instrument(reg)
	if cfg.slowQuery > 0 {
		tracer.SetSlowQueryLog(cfg.slowQuery, logger)
	}
	// The Onto Repository is what every materialization below reasons over.
	// It is built before loadSeed: the seed's geometry nodes take their
	// blank-node labels from the process-wide counter after the ontologies'.
	ontoRepo := gsacs.NewOntoRepository()
	ontoRepo.Register("grdf", grdf.Ontology())
	ontoRepo.Register("seconto", seconto.Ontology())

	// Policies are local configuration, not replicated data: every role loads
	// its own. Only a role that owns data loads any (the switch below).
	policies, err := loadPolicies(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.writerRole != "" {
		role := appendWriterRole(policies, cfg.writerRole)
		logger.Info("writer role granted full access over grdf:Feature", "role", string(role))
	}
	var (
		engine        *gsacs.Engine
		opts          []gsacs.ServerOption
		starts, stops []func()
	)
	newEngine := func(st *store.Store) {
		engine = gsacs.New(policies, st.Instrument(reg), gsacs.Options{Metrics: reg})
		if cfg.auditCap > 0 {
			engine.EnableAudit(cfg.auditCap)
		}
	}
	switch cfg.role() {
	case standalone:
		// Serves the loaded dataset directly, reasoned over once at boot.
		seed, err := loadSeed(cfg)
		if err != nil {
			return nil, err
		}
		data := store.New()
		data.AddAll(seed)
		newEngine(data)
		engine.MaterializeReasoner(ontoRepo.Graphs()...)

	case leader:
		// Recovers the store from its log in the background (seeding the
		// loaded dataset through the log on first boot) and is not ready
		// until that is done; followers stream its WAL and bootstrap from
		// its snapshots.
		seed, err := loadSeed(cfg)
		if err != nil {
			return nil, err
		}
		newEngine(store.New())
		var ready atomic.Bool
		var repoPtr atomic.Pointer[wal.Repository]
		var leaderPtr atomic.Pointer[repl.Leader]
		// Repository and leader appear only once recovery gets that far; both
		// closures tolerate the window by answering nil.
		opts = append(opts, gsacs.WithReadiness(ready.Load), gsacs.WithReplLeader(leaderPtr.Load),
			gsacs.WithWALStatus(func() any {
				if repo := repoPtr.Load(); repo != nil {
					return repo.WALStatus()
				}
				return nil
			}))
		policy, _ := wal.ParseFsyncPolicy(cfg.fsync) // checked by validate
		walOpts := wal.Options{Dir: cfg.dataDir, Fsync: policy, SnapshotEvery: cfg.snapshotEvery,
			Metrics: reg, Logger: logger}
		starts = append(starts, func() {
			go func() {
				if err := recoverDurable(engine, seed, ontoRepo, walOpts, logger, &repoPtr); err != nil {
					logger.Error("recovery failed; refusing to serve", "err", err.Error())
					// Exiting non-zero beats serving 503 forever: the operator
					// must decide what to do with the damaged directory.
					os.Exit(1)
				}
				// The seed is in the log now (or was never needed); this closure
				// outlives recovery, so let go of the second copy of the dataset.
				seed = nil
				leaderPtr.Store(repl.NewLeader(engine.Data(), repoPtr.Load(),
					repl.LeaderOptions{Metrics: reg, Logger: logger}))
				ready.Store(true)
				logger.Info("gsacs-server ready", "triples", engine.Data().Len())
			}()
		})
		stops = append(stops, func() {
			if ld := leaderPtr.Load(); ld != nil {
				ld.Close()
			}
			if repo := repoPtr.Load(); repo != nil {
				if err := repo.Close(); err != nil {
					logger.Error("closing repository", "err", err.Error())
				}
			}
		})

	case follower:
		// Loads no data: the triples arrive from the leader. Its serving gate
		// is its replication state (bootstrapped, within the lag bound).
		newEngine(store.New())
		f, err := repl.NewFollower(engine.Data(), repl.FollowerOptions{
			LeaderURL: cfg.follow,
			MaxLag:    cfg.maxReplicaLag,
			Metrics:   reg,
			Logger:    logger,
			// Every bootstrap (initial, post-fencing, post-compaction) replaces
			// the triple set wholesale; the reasoner's inferences must follow.
			OnBootstrap: func() { engine.MaterializeReasoner(ontoRepo.Graphs()...) },
		})
		if err != nil {
			return nil, err
		}
		opts = append(opts, gsacs.WithReplStatus(f.Status), gsacs.WithMutationRedirect(cfg.follow))
		ctx, cancel := context.WithCancel(context.Background())
		var loop sync.WaitGroup
		starts = append(starts, func() {
			loop.Add(1)
			go func() { defer loop.Done(); f.Run(ctx) }()
		})
		stops = append(stops, func() { cancel(); loop.Wait() })

	case router:
		// Loads no data and holds no triples: each /v1/query is forwarded to
		// one -source replica, so there is nothing to reason over.
		newEngine(store.New())
	}

	slo := obs.NewSLOEngine(obs.SLOConfig{
		LatencyTarget:      cfg.sloLatency,
		AvailabilityTarget: cfg.sloAvail,
	})
	profiler := prof.New(prof.Config{
		CPUWindow: cfg.profileWindow,
		Every:     cfg.profileEvery,
		// The SLO engine's fast-burn verdict is the primary trigger: the
		// watch loop captures the collapse while it starts, not after.
		Burn:     func() bool { return !slo.Status().AvailabilityOK },
		Registry: reg,
		Logger:   logger,
	})
	starts = append(starts, profiler.Start)
	stops = append(stops, profiler.Stop)
	opts = append(opts, gsacs.WithMetrics(reg), gsacs.WithLogger(logger),
		gsacs.WithQueryTimeout(cfg.queryTimeout), gsacs.WithMaxBodyBytes(maxBodyBytes),
		gsacs.WithTracer(tracer), gsacs.WithSLO(slo),
		gsacs.WithWorkload(workload.New(workload.Config{Registry: reg, Logger: logger})),
		gsacs.WithProfiler(profiler))
	if cfg.admissionOn {
		opts = append(opts, gsacs.WithAdmission(admissionConfig(cfg, slo, profiler, reg)))
	}
	if cfg.pprof {
		opts = append(opts, gsacs.WithPprof())
	}
	if cfg.role() == router {
		var members []federation.Source
		peers := make([]gsacs.ClusterPeer, len(cfg.sources))
		for i, base := range cfg.sources {
			peers[i] = gsacs.ClusterPeer{Name: fmt.Sprintf("peer%d", i+1), Base: base}
			members = append(members, federation.NewRemoteSource(peers[i].Name, base, nil))
		}
		fed, err := federation.New(federation.Config{
			SourceTimeout: cfg.sourceTimeout,
			Retry:         federation.RetryConfig{MaxAttempts: cfg.retryMax, BaseDelay: cfg.retryBase},
			Metrics:       reg,
		}, members...)
		if err != nil {
			return nil, err
		}
		opts = append(opts, gsacs.WithFederator(fed))
		if cfg.clusterOn {
			opts = append(opts, gsacs.WithCluster(gsacs.ClusterConfig{Peers: peers}))
		}
	}

	return &assembly{
		handler: gsacs.NewServer(engine, ontoRepo, opts...),
		start: func() {
			for _, f := range starts {
				f()
			}
		},
		close: func() {
			for _, f := range stops {
				f()
			}
		},
	}, nil
}

// admissionConfig sizes the admission controller from the SLO flags.
func admissionConfig(cfg *config, slo *obs.SLOEngine, profiler *prof.Profiler, reg *obs.Registry) gsacs.AdmissionConfig {
	// The AIMD loop defends post-admission service latency; the SLO is
	// end-to-end. Leave the queue deadline as headroom between the two so
	// an admitted request that waited its full deadline can still finish
	// inside the SLO — but never defend less than half the SLO, or a fat
	// deadline would starve the target.
	target := max(cfg.sloLatency-cfg.queueDeadline, cfg.sloLatency/2)
	maxQueue := cfg.maxQueue
	if maxQueue == 0 {
		maxQueue = admission.NoQueue
	}
	return gsacs.AdmissionConfig{
		Controller: admission.NewController(admission.Config{
			MaxQueue:      maxQueue,
			QueueDeadline: cfg.queueDeadline,
			LatencyTarget: target,
			Signal:        admission.DefaultSignal(slo, reg),
			// An overload signal flipping on is exactly the moment whose
			// flamegraph matters: capture immediately instead of waiting for
			// the burn-watch poll.
			OnSignal: func(prev, cur admission.Signal) {
				if cur.FastBurnBreached && !prev.FastBurnBreached {
					profiler.Trigger("fast_burn")
				}
				if cur.Saturated && !prev.Saturated {
					profiler.Trigger("overload")
				}
			},
			Metrics: reg,
		}),
		PriorityHeader: priorityHeader,
	}
}

// recoverDurable opens the write-ahead log (replaying the durable state into
// the engine's store), seeds the initial dataset on first boot, materializes
// the reasoner over the recovered triples and the repository's ontologies,
// and restores the audit trail from the log's audit file and journals it
// there from now on (when auditing is on). The engine must not serve requests
// until this returns (the readiness gate enforces it).
func recoverDurable(engine *gsacs.Engine, seed []rdf.Triple, ontoRepo *gsacs.OntoRepository, walOpts wal.Options,
	logger *slog.Logger, repoPtr *atomic.Pointer[wal.Repository]) error {
	st := engine.Data()
	repo, err := wal.Open(st, walOpts)
	if err != nil {
		return err
	}
	repoPtr.Store(repo)
	info := repo.Info()
	if st.Len() == 0 && info.RecordsReplayed == 0 && info.SnapshotSeq == 0 {
		// First boot on an empty directory: journal the initial dataset so
		// the log alone reconstructs it from here on.
		n := st.AddAll(seed)
		logger.Info("seeded initial dataset into the durable repository", "triples", n)
	}
	engine.MaterializeReasoner(ontoRepo.Graphs()...)
	if engine.AuditStats().Capacity > 0 {
		if restored := engine.RestoreAudit(repo.AuditReplay()); restored > 0 {
			logger.Info("restored audit trail", "entries", restored)
		}
		engine.SetAuditPersist(repo.AppendAudit)
	}
	return nil
}

// appendWriterRole grants role (full IRI or seconto local name) permit rules
// for View, Modify and Delete over every grdf:Feature.
func appendWriterRole(p *seconto.Set, role string) rdf.IRI {
	iri := rdf.IRI(role)
	if !strings.Contains(role, "://") {
		iri = rdf.IRI(seconto.NS + role)
	}
	for _, action := range []rdf.IRI{seconto.ActionView, seconto.ActionModify, seconto.ActionDelete} {
		p.Rules = append(p.Rules, seconto.Rule{
			ID:       rdf.IRI(seconto.NS + "WriterRole" + action.LocalName()),
			Subject:  iri,
			Action:   action,
			Resource: grdf.Feature,
			Permit:   true,
		})
	}
	return iri
}

// serve runs srv on ln until it fails or a signal arrives on stop, then
// drains in-flight requests for up to drain. The stop channel is a parameter
// so tests can drive the shutdown path without delivering real signals.
func serve(srv *http.Server, ln net.Listener, stop <-chan os.Signal, drain time.Duration, logger *slog.Logger) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		// Serve only returns on failure (or external Shutdown).
		if err != nil && err != http.ErrServerClosed {
			logger.Error("server exited", "err", err.Error())
			return err
		}
		return nil
	case sig := <-stop:
		logger.Info("shutdown signal received, draining",
			"signal", fmt.Sprint(sig), "drain_timeout", drain.String())
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		start := time.Now()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("drain incomplete, forcing close",
				"err", err.Error(), "waited", time.Since(start).String())
			srv.Close()
			return err
		}
		logger.Info("drained cleanly", "took", time.Since(start).String())
		return nil
	}
}

// loadSeed returns the initial dataset as triples — the built-in scenario's,
// or the -data file's as parsed — for a standalone server to add with one
// AddAll and a leader to journal as its first commit.
func loadSeed(cfg *config) ([]rdf.Triple, error) {
	if cfg.dataFile == "" {
		return datagen.NewScenario(datagen.ScenarioConfig{Seed: cfg.seed, Sites: cfg.sites}).Merged.Triples(), nil
	}
	return parseTurtleFile(cfg.dataFile)
}

// loadPolicies loads the policy set alone — the scenario's, or the -policies
// file — without generating or parsing any dataset.
func loadPolicies(cfg *config) (*seconto.Set, error) {
	if cfg.policyFile == "" {
		return datagen.ScenarioPolicies(), nil
	}
	ts, err := parseTurtleFile(cfg.policyFile)
	if err != nil {
		return nil, err
	}
	pst := store.New()
	pst.AddAll(ts)
	return seconto.Parse(pst)
}

// parseTurtleFile parses a Turtle (or N-Triples) file straight to its
// triples: no graph, so no dedup map — the store's AddAll drops duplicates.
// The file is read once, into the one string the parser reads; the parser
// copies what its terms keep, so the document is garbage once parsed.
func parseTurtleFile(path string) ([]rdf.Triple, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var doc strings.Builder
	if fi, err := f.Stat(); err == nil {
		doc.Grow(int(fi.Size()))
	}
	if _, err := io.Copy(&doc, f); err != nil {
		return nil, err
	}
	ts, err := turtle.ParseTriples(doc.String())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ts, nil
}
