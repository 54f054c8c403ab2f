// Command gsacs-server runs the Fig. 3 secure-GRDF middleware over the
// Section 7.1 scenario (or user-supplied data and policies) and serves the
// G-SACS HTTP API:
//
//	GET /healthz      status, triple count, cache and audit stats
//	GET /metrics      Prometheus text exposition of the whole stack
//	GET /v1/roles
//	GET /v1/ontologies
//	GET /v1/view?role=MainRep[&format=ntriples]
//	GET /v1/resource?role=Hazmat&iri=<feature-iri>
//	GET /v1/query?role=Hazmat&q=<sparql>
//	GET /v1/audit
//	POST /v1/mutate?role=Writer   authorized atomic batch (JSON op array)
//
// Every response carries an X-Trace-Id header; the same ID appears on every
// structured (JSON, stderr) log line the request produced.
//
// With -data-dir the ontology repository is durable: every authorized
// mutation is journaled to a write-ahead log before it is acknowledged,
// the state is periodically checkpointed into checksummed snapshots, and a
// restart recovers to exactly the acknowledged state (see README "Durability
// & crash recovery"). The server starts listening immediately and answers
// 503 {"code":"recovering"} on every route except /healthz, /metrics and the
// profiler until recovery completes. On the first start against an empty directory
// the initial dataset (scenario or -data file) is seeded through the log.
//
// With -source the server federates /v1/query across the local engine and
// one or more peer G-SACS servers, with per-source retries, circuit
// breakers and graceful degradation (see README "Federation & fault
// tolerance"). SIGINT/SIGTERM drain in-flight requests for up to
// -drain-timeout before exit, then close the log cleanly.
//
// A durable server (-data-dir) is also a replication leader: followers pull
// its WAL over GET /v1/wal/stream and bootstrap from GET /v1/wal/snapshot.
// With -follow the server runs as a read replica instead: it replicates the
// leader's state, serves reads, answers every mutation with 421 and a
// Location header naming the leader, and gates its readiness on replication
// lag (-max-replica-lag) — /healthz flips to 503 "lagging" whenever the
// replica cannot prove itself caught up within the bound (see README
// "Replication & failover"). -router serves /v1/query purely by fanning out
// across -source replicas, with no local engine in the merge.
//
// Usage:
//
//	gsacs-server -addr :8080                       # built-in scenario
//	gsacs-server -data world.ttl -policies p.ttl   # custom dataset
//	gsacs-server -data-dir /var/lib/gsacs -fsync always   # durable repository
//	gsacs-server -pprof -log-level debug           # profiling + verbose logs
//	gsacs-server -source http://peer1:8080 -source-timeout 2s \
//	             -breaker-threshold 5 -retry-max 3 # federated front-end
//	gsacs-server -follow http://leader:8080 -max-replica-lag 5s  # read replica
//	gsacs-server -router -source http://replica1:8081 \
//	             -source http://replica2:8082       # replica-only query router
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
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
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/repl"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/turtle"
	"repro/internal/wal"
)

// sourceList collects repeated -source flags.
type sourceList []string

func (s *sourceList) String() string { return strings.Join(*s, ",") }
func (s *sourceList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*s = append(*s, part)
		}
	}
	return nil
}

// flagConfig carries every flag value through validation, so the whole
// configuration is checked up front and bad combinations fail fast with a
// usage error instead of surfacing minutes later at first use.
type flagConfig struct {
	addr          string
	addrFile      string
	dataFile      string
	policyFile    string
	sites         int
	cache         int
	auditCap      int
	logLevel      string
	queryTimeout  time.Duration
	drainTimeout  time.Duration
	maxBodyBytes  int64
	dataDir       string
	fsync         string
	fsyncInterval time.Duration
	snapshotEvery int
	commitBatch   int
	commitDelay   time.Duration
	writerRole    string
	sources       []string
	sourceTimeout time.Duration
	breakerThresh int
	retryMax      int
	traceBuffer   int
	slowQuery     time.Duration
	sloLatency    time.Duration
	sloAvail      float64
	follow        string
	maxReplicaLag time.Duration
	router        bool
	retainMinSeq  uint64
	admissionOn   bool
	maxQueue      int
	queueDeadline time.Duration
	workloadTopK  int
	profileRing   int
	profileWindow time.Duration
	profileEvery  time.Duration
	clusterOn     bool
}

// validateFlags rejects inconsistent or out-of-range configurations. It is a
// pure function so the matrix is unit-testable.
func validateFlags(c flagConfig) error {
	if c.addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if c.dataFile == "" && c.policyFile != "" {
		return fmt.Errorf("-policies requires -data")
	}
	if c.dataFile != "" && c.policyFile == "" {
		return fmt.Errorf("-data requires -policies")
	}
	if c.dataFile == "" && c.sites < 1 {
		return fmt.Errorf("-sites must be at least 1 when using the built-in scenario")
	}
	if c.cache < 0 {
		return fmt.Errorf("-cache must be non-negative")
	}
	if c.auditCap < 0 {
		return fmt.Errorf("-audit must be non-negative")
	}
	switch strings.ToLower(c.logLevel) {
	case "debug", "info", "warn", "error":
	default:
		return fmt.Errorf("-log-level must be debug, info, warn or error (got %q)", c.logLevel)
	}
	if c.queryTimeout < 0 {
		return fmt.Errorf("-query-timeout must be non-negative")
	}
	if c.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive")
	}
	if c.maxBodyBytes < 0 {
		return fmt.Errorf("-max-body-bytes must be non-negative")
	}
	if _, err := wal.ParseFsyncPolicy(c.fsync); err != nil {
		return fmt.Errorf("-fsync: %v", err)
	}
	if c.fsyncInterval <= 0 {
		return fmt.Errorf("-fsync-interval must be positive")
	}
	if c.snapshotEvery < 0 {
		return fmt.Errorf("-snapshot-every must be non-negative (0 disables automatic snapshots)")
	}
	if c.dataDir == "" && c.fsync != "always" {
		return fmt.Errorf("-fsync has no effect without -data-dir")
	}
	if c.commitBatch < 1 {
		return fmt.Errorf("-commit-max-batch must be at least 1")
	}
	if c.commitDelay < 0 {
		return fmt.Errorf("-commit-max-delay must be non-negative")
	}
	if len(c.sources) > 0 {
		if c.sourceTimeout <= 0 {
			return fmt.Errorf("-source-timeout must be positive")
		}
		if c.breakerThresh < 1 {
			return fmt.Errorf("-breaker-threshold must be at least 1")
		}
		if c.retryMax < 1 {
			return fmt.Errorf("-retry-max must be at least 1")
		}
	}
	if c.follow != "" {
		if c.dataDir != "" {
			return fmt.Errorf("-follow runs a read replica; -data-dir would fork the leader's durable history")
		}
		if len(c.sources) > 0 || c.router {
			return fmt.Errorf("-follow cannot be combined with -source or -router; run the router as its own process")
		}
		if c.maxReplicaLag < 0 {
			return fmt.Errorf("-max-replica-lag must be non-negative (0 disables the lag gate)")
		}
	}
	if c.router && len(c.sources) == 0 {
		return fmt.Errorf("-router requires at least one -source replica to route to")
	}
	if c.retainMinSeq > 0 && c.dataDir == "" {
		return fmt.Errorf("-wal-retain-min-seq has no effect without -data-dir")
	}
	if c.traceBuffer < 0 {
		return fmt.Errorf("-trace-buffer must be non-negative (0 disables trace retention)")
	}
	if c.slowQuery < 0 {
		return fmt.Errorf("-slow-query-threshold must be non-negative (0 disables the slow-query log)")
	}
	if c.sloLatency <= 0 {
		return fmt.Errorf("-slo-latency must be positive")
	}
	if c.sloAvail <= 0 || c.sloAvail >= 1 {
		return fmt.Errorf("-slo-availability must be in (0, 1), e.g. 0.999")
	}
	if c.admissionOn {
		if c.maxQueue < 0 {
			return fmt.Errorf("-max-queue must be non-negative (0 disables queueing)")
		}
		if c.queueDeadline <= 0 {
			return fmt.Errorf("-queue-deadline must be positive")
		}
	}
	if c.workloadTopK < 0 {
		return fmt.Errorf("-workload-topk must be non-negative (0 disables workload introspection)")
	}
	if c.profileRing < 0 {
		return fmt.Errorf("-profile-ring must be non-negative (0 disables continuous profiling)")
	}
	if c.profileRing > 0 {
		if c.profileWindow <= 0 {
			return fmt.Errorf("-profile-cpu-window must be positive")
		}
		if c.profileEvery < 0 {
			return fmt.Errorf("-profile-every must be non-negative (0 = burn-triggered captures only)")
		}
	}
	if c.clusterOn && len(c.sources) == 0 {
		return fmt.Errorf("-cluster requires at least one -source peer to roll up")
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file (integration-test port discovery)")
	dataFile := flag.String("data", "", "Turtle data file (empty = built-in contamination scenario)")
	policyFile := flag.String("policies", "", "Turtle policy file (List 8 layout); requires -data")
	sites := flag.Int("sites", 12, "scenario size when using built-in data")
	seed := flag.Int64("seed", 7, "scenario seed when using built-in data")
	cache := flag.Int("cache", 32, "query cache entries (0 disables)")
	auditCap := flag.Int("audit", 256, "audit trail capacity (0 disables)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "slog level: debug, info, warn, error")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-request SPARQL evaluation deadline (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "in-flight request drain window on SIGINT/SIGTERM")
	maxBodyBytes := flag.Int64("max-body-bytes", 1<<20, "request body cap on /v1/mutate (0 disables)")

	dataDir := flag.String("data-dir", "", "durable repository directory (empty = in-memory only; mutations are lost on exit)")
	fsyncMode := flag.String("fsync", "always", "WAL durability: always (fsync per mutation), interval (batched), off")
	fsyncInterval := flag.Duration("fsync-interval", 50*time.Millisecond, "flush period under -fsync interval")
	snapshotEvery := flag.Int("snapshot-every", 10000, "WAL records between automatic snapshots (0 disables)")
	commitMaxBatch := flag.Int("commit-max-batch", 128, "max mutations fused into one group commit (1 disables batching)")
	commitMaxDelay := flag.Duration("commit-max-delay", 500*time.Microsecond, "straggler-gathering window before a group commit fsyncs; only spent while concurrent writers are in flight (0 = fuse only naturally queued writers)")
	writerRole := flag.String("writer-role", "", "grant this role full View/Modify/Delete over grdf:Feature (write-path testing)")

	var sources sourceList
	flag.Var(&sources, "source", "peer G-SACS base URL to federate /v1/query across (repeatable or comma-separated)")
	sourceTimeout := flag.Duration("source-timeout", 2*time.Second, "per-attempt deadline against each federated source")
	breakerOff := flag.Bool("breaker-off", false, "disable the per-source circuit breakers")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures that open a source's breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open time before a half-open probe")
	retryMax := flag.Int("retry-max", 3, "attempts per source per request (1 disables retries)")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "base backoff before the first retry")

	follow := flag.String("follow", "", "run as a read replica of this leader base URL (replicates its WAL; mutations answer 421 pointing at the leader)")
	maxReplicaLag := flag.Duration("max-replica-lag", 5*time.Second, "replica staleness bound: readiness flips to 503 \"lagging\" when the follower cannot prove itself caught up within this window (0 disables)")
	router := flag.Bool("router", false, "federate /v1/query across -source replicas only, with no local engine in the merge")
	walRetainMinSeq := flag.Uint64("wal-retain-min-seq", 0, "manual WAL GC retention floor: never delete segments holding records at or after this sequence (0 = active follower positions alone drive retention)")

	traceBuffer := flag.Int("trace-buffer", 256, "completed traces retained for /v1/traces (0 disables retention; spans still feed explain=analyze and the slow-query log)")
	slowQuery := flag.Duration("slow-query-threshold", 0, "log the full span tree of any request slower than this (0 disables)")
	sloLatency := flag.Duration("slo-latency", 100*time.Millisecond, "p99 latency objective tracked by /v1/slo and grdf_slo_* metrics")
	sloAvail := flag.Float64("slo-availability", 0.999, "availability objective (fraction of requests that must not 5xx)")
	admissionOn := flag.Bool("admission", true, "adaptive admission control: shed load with 429 + Retry-After instead of queueing unboundedly")
	maxQueue := flag.Int("max-queue", 128, "per-class admission queue bound (0 disables queueing; over-limit arrivals shed immediately)")
	queueDeadline := flag.Duration("queue-deadline", 100*time.Millisecond, "longest a request may wait for an admission slot before it is shed")
	priorityHeader := flag.String("priority-header", "X-Priority", "request header carrying the client priority tier (high/normal/low)")
	workloadTopK := flag.Int("workload-topk", 256, "query fingerprints tracked for /v1/queries (0 disables workload introspection)")
	profileRing := flag.Int("profile-ring", 8, "profile captures retained for /v1/profiles (0 disables continuous profiling)")
	profileCPUWindow := flag.Duration("profile-cpu-window", 2*time.Second, "CPU profiling window per capture")
	profileEvery := flag.Duration("profile-every", 0, "periodic capture cadence (0 = burn-triggered captures only)")
	clusterOn := flag.Bool("cluster", false, "mount the /v1/cluster fleet rollup over the -source peers")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.Print(os.Stdout, "gsacs-server")
		return
	}

	cfg := flagConfig{
		addr: *addr, addrFile: *addrFile, dataFile: *dataFile, policyFile: *policyFile,
		sites: *sites, cache: *cache, auditCap: *auditCap, logLevel: *logLevel,
		queryTimeout: *queryTimeout, drainTimeout: *drainTimeout, maxBodyBytes: *maxBodyBytes,
		dataDir: *dataDir, fsync: *fsyncMode, fsyncInterval: *fsyncInterval,
		snapshotEvery: *snapshotEvery, writerRole: *writerRole,
		commitBatch: *commitMaxBatch, commitDelay: *commitMaxDelay,
		sources: sources, sourceTimeout: *sourceTimeout,
		breakerThresh: *breakerThreshold, retryMax: *retryMax,
		traceBuffer: *traceBuffer, slowQuery: *slowQuery,
		sloLatency: *sloLatency, sloAvail: *sloAvail,
		follow: *follow, maxReplicaLag: *maxReplicaLag,
		router: *router, retainMinSeq: *walRetainMinSeq,
		admissionOn: *admissionOn, maxQueue: *maxQueue, queueDeadline: *queueDeadline,
		workloadTopK: *workloadTopK, profileRing: *profileRing,
		profileWindow: *profileCPUWindow, profileEvery: *profileEvery,
		clusterOn: *clusterOn,
	}
	if err := validateFlags(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gsacs-server: %v\n\n", err)
		flag.Usage()
		os.Exit(2)
	}

	logger := obs.NewLogger(os.Stderr, parseLevel(*logLevel))
	reg := obs.NewRegistry()
	buildinfo.Register(reg)
	tracer := obs.NewTracer(*traceBuffer).Instrument(reg)
	if *slowQuery > 0 {
		tracer.SetSlowQueryLog(*slowQuery, logger)
	}

	seedData, policies, err := loadDataset(*dataFile, *policyFile, *sites, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsacs-server: %v\n", err)
		os.Exit(1)
	}
	if *writerRole != "" {
		role := appendWriterRole(policies, *writerRole)
		logger.Info("writer role granted full access over grdf:Feature", "role", string(role))
	}

	// Durable mode builds the engine over an empty store and recovers into it
	// asynchronously; follower mode builds it over an empty store that the
	// replication loop fills; in-memory mode serves the loaded dataset
	// directly.
	var engine *gsacs.Engine
	var ready atomic.Bool
	var repoPtr atomic.Pointer[wal.Repository]
	var leaderPtr atomic.Pointer[repl.Leader]
	durable := *dataDir != ""
	following := *follow != ""
	if durable || following {
		st := store.New().Instrument(reg)
		engine = gsacs.New(policies, st, gsacs.Options{CacheSize: *cache, Metrics: reg})
		if following {
			if *auditCap > 0 {
				engine.EnableAudit(*auditCap)
			}
			// A replica's serving gate is its replication state (bootstrapped,
			// within the lag bound), not the durable-recovery probe.
			ready.Store(true)
		}
	} else {
		seedData.Instrument(reg)
		engine = gsacs.New(policies, seedData, gsacs.Options{
			Reasoner:  newReasoner(seedData, reg),
			CacheSize: *cache,
			Metrics:   reg,
		})
		if *auditCap > 0 {
			engine.EnableAudit(*auditCap)
		}
		ready.Store(true)
	}

	// Group-commit tuning applies to the data store regardless of durability:
	// in-memory mode still batches generation publications under write load.
	engine.Data().SetCommitBatching(*commitMaxBatch, *commitMaxDelay)

	ontoRepo := gsacs.NewOntoRepository()
	ontoRepo.Register("grdf", grdf.Ontology())
	ontoRepo.Register("seconto", seconto.Ontology())

	slo := obs.NewSLOEngine(obs.SLOConfig{
		LatencyTarget:      *sloLatency,
		AvailabilityTarget: *sloAvail,
	})
	opts := []gsacs.ServerOption{gsacs.WithMetrics(reg), gsacs.WithLogger(logger),
		gsacs.WithQueryTimeout(*queryTimeout), gsacs.WithMaxBodyBytes(*maxBodyBytes),
		gsacs.WithReadiness(ready.Load), gsacs.WithTracer(tracer), gsacs.WithSLO(slo)}
	if *workloadTopK > 0 {
		opts = append(opts, gsacs.WithWorkload(workload.New(workload.Config{
			Capacity: *workloadTopK,
			Registry: reg,
			Logger:   logger,
		})))
	}
	var profiler *prof.Profiler
	if *profileRing > 0 {
		profiler = prof.New(prof.Config{
			Ring:      *profileRing,
			CPUWindow: *profileCPUWindow,
			Every:     *profileEvery,
			// The SLO engine's fast-burn verdict is the primary trigger: the
			// watch loop captures the collapse while it starts, not after.
			Burn:     func() bool { return !slo.Status().AvailabilityOK },
			Registry: reg,
			Logger:   logger,
		})
		profiler.Start()
		defer profiler.Stop()
		opts = append(opts, gsacs.WithProfiler(profiler))
	}
	if *admissionOn {
		// The AIMD loop defends post-admission service latency; the SLO is
		// end-to-end. Leave the queue deadline as headroom between the two so
		// an admitted request that waited its full deadline can still finish
		// inside the SLO — but never defend less than half the SLO, or a fat
		// deadline would starve the target.
		target := *sloLatency - *queueDeadline
		if target < *sloLatency/2 {
			target = *sloLatency / 2
		}
		mq := *maxQueue
		if mq == 0 {
			mq = admission.NoQueue
		}
		// An overload signal flipping on is exactly the moment whose
		// flamegraph matters: capture immediately instead of waiting for the
		// burn-watch poll.
		var onSignal func(prev, cur admission.Signal)
		if profiler != nil {
			onSignal = func(prev, cur admission.Signal) {
				if cur.FastBurnBreached && !prev.FastBurnBreached {
					profiler.Trigger("fast_burn")
				}
				if cur.Saturated && !prev.Saturated {
					profiler.Trigger("overload")
				}
			}
		}
		opts = append(opts, gsacs.WithAdmission(gsacs.AdmissionConfig{
			Controller: admission.NewController(admission.Config{
				MaxQueue:      mq,
				QueueDeadline: *queueDeadline,
				LatencyTarget: target,
				Signal:        admission.DefaultSignal(slo, reg),
				OnSignal:      onSignal,
				Metrics:       reg,
			}),
			PriorityHeader: *priorityHeader,
		}))
	}
	if *pprofOn {
		opts = append(opts, gsacs.WithPprof())
	}
	if durable {
		// The repository appears only after recovery; the closure tolerates the
		// window by answering nil, which /healthz renders as no wal block yet.
		opts = append(opts, gsacs.WithWALStatus(func() any {
			if repo := repoPtr.Load(); repo != nil {
				return repo.WALStatus()
			}
			return nil
		}))
		// A durable server is a replication leader: followers stream its WAL
		// and bootstrap from its snapshots. Like the repository, the leader
		// appears only once recovery completes.
		opts = append(opts, gsacs.WithReplLeader(leaderPtr.Load))
	}
	var follower *repl.Follower
	if following {
		f, err := repl.NewFollower(engine.Data(), repl.FollowerOptions{
			LeaderURL: *follow,
			MaxLag:    *maxReplicaLag,
			Metrics:   reg,
			Logger:    logger,
			// Every bootstrap (initial, post-fencing, post-compaction) replaces
			// the triple set wholesale; the reasoner's inferences must follow.
			OnBootstrap: func() { engine.SetReasoner(newReasoner(engine.Data(), reg)) },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsacs-server: %v\n", err)
			os.Exit(1)
		}
		follower = f
		opts = append(opts,
			gsacs.WithReplStatus(f.Status),
			gsacs.WithMutationRedirect(*follow))
	}
	if len(sources) > 0 {
		var members []federation.Source
		if !*router {
			// A dedicated router process carries no data of its own; anything
			// else merges its local engine into the fan-out.
			members = append(members, federation.NewLocalSource("local", engine))
		}
		for i, base := range sources {
			members = append(members,
				federation.NewRemoteSource(fmt.Sprintf("peer%d", i+1), base, nil))
		}
		fed, err := federation.New(federation.Config{
			SourceTimeout:  *sourceTimeout,
			DisableBreaker: *breakerOff,
			Breaker: federation.BreakerConfig{
				Threshold: *breakerThreshold,
				Cooldown:  *breakerCooldown,
			},
			Retry: federation.RetryConfig{
				MaxAttempts: *retryMax,
				BaseDelay:   *retryBase,
			},
			Metrics: reg,
		}, members...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gsacs-server: %v\n", err)
			os.Exit(1)
		}
		opts = append(opts, gsacs.WithFederator(fed))
	}
	if *clusterOn {
		peers := make([]gsacs.ClusterPeer, 0, len(sources))
		for i, base := range sources {
			peers = append(peers, gsacs.ClusterPeer{Name: fmt.Sprintf("peer%d", i+1), Base: base})
		}
		opts = append(opts, gsacs.WithCluster(gsacs.ClusterConfig{Peers: peers}))
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           gsacs.NewServer(engine, ontoRepo, opts...),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Bind before recovery: clients get 503 "recovering" rather than
	// connection refused, and readiness probes can watch the transition.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsacs-server: %v\n", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "gsacs-server: write -addr-file: %v\n", err)
			os.Exit(1)
		}
	}
	logger.Info("gsacs-server listening",
		"addr", ln.Addr().String(),
		"durable", durable,
		"follow", *follow,
		"router", *router,
		"policies", len(engine.Policies().Rules),
		"cache_entries", *cache,
		"audit_capacity", *auditCap,
		"pprof", *pprofOn,
		"federated_sources", len(sources),
		"admission", *admissionOn,
		"drain_timeout", drainTimeout.String(),
	)

	replCtx, replCancel := context.WithCancel(context.Background())
	defer replCancel()
	if follower != nil {
		go follower.Run(replCtx)
	}

	if durable {
		policy, _ := wal.ParseFsyncPolicy(*fsyncMode)
		go func() {
			if err := recoverDurable(engine, seedData, wal.Options{
				Dir:           *dataDir,
				Fsync:         policy,
				FsyncInterval: *fsyncInterval,
				SnapshotEvery: *snapshotEvery,
				Metrics:       reg,
				Logger:        logger,
			}, *auditCap, reg, logger, &repoPtr); err != nil {
				logger.Error("recovery failed; refusing to serve", "err", err.Error())
				// Exiting non-zero beats serving 503 forever: the operator
				// must decide what to do with the damaged directory.
				os.Exit(1)
			}
			// Recovery done: stand up the replication leader over the open
			// repository so followers can stream and bootstrap.
			leaderPtr.Store(repl.NewLeader(engine.Data(), repoPtr.Load(), repl.LeaderOptions{
				RetainMinSeq: *walRetainMinSeq,
				Metrics:      reg,
				Logger:       logger,
			}))
			ready.Store(true)
			logger.Info("gsacs-server ready", "triples", engine.Data().Len())
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	serveErr := serve(srv, ln, stop, *drainTimeout, logger)
	// Drain finished (or failed): stop replication first, then flush and
	// close the log so the final fsync state on disk matches what clients
	// were told.
	replCancel()
	if ld := leaderPtr.Load(); ld != nil {
		ld.Close()
	}
	if repo := repoPtr.Load(); repo != nil {
		if err := repo.Close(); err != nil {
			logger.Error("closing repository", "err", err.Error())
		}
	}
	if serveErr != nil {
		os.Exit(1)
	}
}

// recoverDurable opens the write-ahead log (replaying the durable state into
// the engine's store), seeds the initial dataset on first boot, materializes
// the reasoner over the recovered triples, and restores + re-wires the audit
// trail. The engine must not serve requests until this returns (the
// readiness gate enforces it).
func recoverDurable(engine *gsacs.Engine, seedData *store.Store, walOpts wal.Options,
	auditCap int, reg *obs.Registry, logger *slog.Logger, repoPtr *atomic.Pointer[wal.Repository]) error {
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
		n := st.AddAll(seedData.Triples())
		logger.Info("seeded initial dataset into the durable repository", "triples", n)
	}
	engine.SetReasoner(newReasoner(st, reg))
	if auditCap > 0 {
		engine.EnableAudit(auditCap)
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

// serve runs srv on ln (nil = srv.ListenAndServe) until it fails or a signal
// arrives on stop, then drains in-flight requests for up to drain. The stop
// channel is a parameter so tests can drive the shutdown path without
// delivering real signals.
func serve(srv *http.Server, ln net.Listener, stop <-chan os.Signal, drain time.Duration, logger *slog.Logger) error {
	errCh := make(chan error, 1)
	go func() {
		if ln != nil {
			errCh <- srv.Serve(ln)
		} else {
			errCh <- srv.ListenAndServe()
		}
	}()
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

func parseLevel(s string) slog.Level {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug
	case "warn":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// loadDataset loads the initial data store and policy set: the built-in
// scenario, or user-supplied Turtle files.
func loadDataset(dataFile, policyFile string, sites int, seed int64) (*store.Store, *seconto.Set, error) {
	if dataFile == "" {
		sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: seed, Sites: sites})
		return sc.Merged, sc.Policies, nil
	}
	raw, err := os.ReadFile(dataFile)
	if err != nil {
		return nil, nil, err
	}
	g, err := turtle.ParseString(string(raw))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", dataFile, err)
	}
	data := store.FromGraph(g)
	if policyFile == "" {
		return nil, nil, fmt.Errorf("-data requires -policies")
	}
	praw, err := os.ReadFile(policyFile)
	if err != nil {
		return nil, nil, err
	}
	pg, err := turtle.ParseString(string(praw))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", policyFile, err)
	}
	policies, err := seconto.Parse(store.FromGraph(pg))
	if err != nil {
		return nil, nil, err
	}
	return data, policies, nil
}

// newReasoner materializes an OWL reasoner over the ontologies plus the
// store's current triples.
func newReasoner(data *store.Store, reg *obs.Registry) *owl.Reasoner {
	r := owl.NewReasoner().Instrument(reg)
	r.AddGraph(grdf.Ontology())
	r.AddGraph(seconto.Ontology())
	r.AddAll(data.Triples())
	return r
}

// buildEngine is the synchronous (in-memory) engine constructor: dataset,
// instrumentation, reasoner, engine.
func buildEngine(dataFile, policyFile string, sites int, seed int64, cache int, reg *obs.Registry) (*gsacs.Engine, error) {
	data, policies, err := loadDataset(dataFile, policyFile, sites, seed)
	if err != nil {
		return nil, err
	}
	data.Instrument(reg)
	return gsacs.New(policies, data, gsacs.Options{
		Reasoner:  newReasoner(data, reg),
		CacheSize: cache,
		Metrics:   reg,
	}), nil
}
