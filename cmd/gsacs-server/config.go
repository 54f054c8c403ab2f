package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"repro/internal/wal"
)

// Values that were once flags nobody set. Each is the flag's former default;
// the other retired knobs (group-commit batching, -fsync interval period,
// breaker threshold and cooldown, workload top-K, profile ring) fall through
// to the identical default their library already owns.
const (
	// drainTimeout is the in-flight request drain window on SIGINT/SIGTERM.
	drainTimeout = 10 * time.Second
	// maxBodyBytes caps the /v1/mutate request body.
	maxBodyBytes = 1 << 20
	// priorityHeader carries the client's priority tier (high/normal/low).
	priorityHeader = "X-Priority"
)

// config is the whole configuration: one field per flag, bound by register
// and checked by validate, so there is no second list to keep in step.
type config struct {
	addr       string
	addrFile   string
	dataFile   string
	policyFile string
	sites      int
	seed       int64
	auditCap   int
	pprof      bool
	logLevel   slog.Level
	version    bool

	queryTimeout time.Duration

	dataDir       string
	fsync         string
	snapshotEvery int
	writerRole    string

	sources       []string
	sourceTimeout time.Duration
	retryMax      int
	retryBase     time.Duration
	clusterOn     bool

	follow        string
	maxReplicaLag time.Duration

	traceBuffer   int
	slowQuery     time.Duration
	sloLatency    time.Duration
	sloAvail      float64
	admissionOn   bool
	maxQueue      int
	queueDeadline time.Duration
	profileWindow time.Duration
	profileEvery  time.Duration
}

// register binds every field to its flag on fs.
func (c *config) register(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.addrFile, "addr-file", "", "write the bound listen address to this file (integration-test port discovery)")
	fs.StringVar(&c.dataFile, "data", "", "Turtle data file (empty = built-in contamination scenario)")
	fs.StringVar(&c.policyFile, "policies", "", "Turtle policy file (List 8 layout); requires -data")
	fs.IntVar(&c.sites, "sites", 12, "scenario size when using built-in data")
	fs.Int64Var(&c.seed, "seed", 7, "scenario seed when using built-in data")
	fs.IntVar(&c.auditCap, "audit", 256, "audit trail capacity in requests (0 disables)")
	fs.BoolVar(&c.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.TextVar(&c.logLevel, "log-level", slog.LevelInfo, "slog level: debug, info, warn, error")
	fs.BoolVar(&c.version, "version", false, "print version and exit")
	fs.DurationVar(&c.queryTimeout, "query-timeout", 30*time.Second, "per-request SPARQL evaluation deadline (0 disables)")

	fs.StringVar(&c.dataDir, "data-dir", "", "durable repository directory (empty = in-memory only; mutations are lost on exit)")
	fs.StringVar(&c.fsync, "fsync", "always", "WAL durability: always (fsync per mutation), interval (batched), off")
	fs.IntVar(&c.snapshotEvery, "snapshot-every", 10000, "WAL commit records between automatic snapshots (0 disables)")
	fs.StringVar(&c.writerRole, "writer-role", "", "grant this role full View/Modify/Delete over grdf:Feature (write-path testing)")

	fs.Func("source", "run as a query router: a replica's base URL to forward /v1/query to (repeatable or comma-separated)", func(v string) error {
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				c.sources = append(c.sources, part)
			}
		}
		return nil
	})
	fs.DurationVar(&c.sourceTimeout, "source-timeout", 2*time.Second, "per-attempt deadline against each -source replica")
	fs.IntVar(&c.retryMax, "retry-max", 3, "attempts per replica per request before the router moves on (1 disables retries)")
	fs.DurationVar(&c.retryBase, "retry-base", 50*time.Millisecond, "base backoff before the first retry")
	fs.BoolVar(&c.clusterOn, "cluster", false, "mount the /v1/cluster fleet rollup over the -source replicas")

	fs.StringVar(&c.follow, "follow", "", "run as a read replica of this leader base URL (replicates its WAL; mutations answer 421 pointing at the leader)")
	fs.DurationVar(&c.maxReplicaLag, "max-replica-lag", 5*time.Second, "replica staleness bound: readiness flips to 503 \"lagging\" when the follower cannot prove itself caught up within this window (0 disables)")

	fs.IntVar(&c.traceBuffer, "trace-buffer", 256, "completed traces retained for /v1/traces (0 disables retention; spans still feed explain=analyze and the slow-query log)")
	fs.DurationVar(&c.slowQuery, "slow-query-threshold", 0, "log the full span tree of any request slower than this (0 disables)")
	fs.DurationVar(&c.sloLatency, "slo-latency", 100*time.Millisecond, "p99 latency objective tracked by /v1/slo and grdf_slo_* metrics")
	fs.Float64Var(&c.sloAvail, "slo-availability", 0.999, "availability objective (fraction of requests that must not 5xx)")
	fs.BoolVar(&c.admissionOn, "admission", true, "adaptive admission control: shed load with 429 + Retry-After instead of queueing unboundedly")
	fs.IntVar(&c.maxQueue, "max-queue", 128, "per-class admission queue bound (0 disables queueing; over-limit arrivals shed immediately)")
	fs.DurationVar(&c.queueDeadline, "queue-deadline", 100*time.Millisecond, "longest a request may wait for an admission slot before it is shed")
	fs.DurationVar(&c.profileWindow, "profile-cpu-window", 2*time.Second, "CPU profiling window per capture")
	fs.DurationVar(&c.profileEvery, "profile-every", 0, "periodic capture cadence (0 = burn-triggered captures only)")
}

// role is what the process is: what it loads, whether it reasons, and which
// part of the HTTP surface it mounts all follow from it (see assemble).
type role string

const (
	// standalone serves a dataset held in memory only.
	standalone role = "standalone"
	// leader (-data-dir) journals every mutation and feeds followers its WAL.
	leader role = "leader"
	// follower (-follow) replicates a leader and serves reads.
	follower role = "follower"
	// router (-source) holds no data; it forwards each query to one replica.
	router role = "router"
)

// role derives the process role from the flags that select one. validate
// rejects every combination naming more than one.
func (c *config) role() role {
	switch {
	case len(c.sources) > 0:
		return router
	case c.follow != "":
		return follower
	case c.dataDir != "":
		return leader
	}
	return standalone
}

// validate rejects inconsistent or out-of-range configurations, so a bad
// combination fails at start with a usage error instead of surfacing minutes
// later at first use. One row per rule; the first broken one is reported.
func (c *config) validate() error {
	is := c.role()
	_, fsyncErr := wal.ParseFsyncPolicy(c.fsync)
	for _, rule := range []struct {
		broken bool
		msg    string
	}{
		{c.addr == "", "-addr must not be empty"},
		{c.dataFile == "" && c.policyFile != "", "-policies requires -data"},
		{c.dataFile != "" && c.policyFile == "", "-data requires -policies"},
		{c.dataFile == "" && c.sites < 1, "-sites must be at least 1 when using the built-in scenario"},
		{c.auditCap < 0, "-audit must be non-negative"},
		{c.queryTimeout < 0, "-query-timeout must be non-negative"},
		{fsyncErr != nil, fmt.Sprintf("-fsync: %v", fsyncErr)},
		{c.snapshotEvery < 0, "-snapshot-every must be non-negative (0 disables automatic snapshots)"},
		{c.dataDir == "" && c.fsync != "always", "-fsync has no effect without -data-dir"},

		{is == router && c.sourceTimeout <= 0, "-source-timeout must be positive"},
		{is == router && c.retryMax < 1, "-retry-max must be at least 1"},
		{is == router && c.retryBase <= 0, "-retry-base must be positive"},
		{c.clusterOn && is != router, "-cluster requires at least one -source replica to roll up"},

		// One process, one role.
		{is == router && c.follow != "", "-follow cannot be combined with -source; run the router as its own process"},
		{is == router && c.dataDir != "", "-source makes a router, which holds no data; -data-dir belongs on the leader"},
		{is == router && c.writerRole != "", "-source makes a router, which holds no data to write; -writer-role belongs on the leader and its replicas"},
		{is == follower && c.dataDir != "", "-follow runs a read replica; -data-dir would fork the leader's durable history"},
		{is == follower && c.maxReplicaLag < 0, "-max-replica-lag must be non-negative (0 disables the lag gate)"},

		{c.traceBuffer < 0, "-trace-buffer must be non-negative (0 disables trace retention)"},
		{c.slowQuery < 0, "-slow-query-threshold must be non-negative (0 disables the slow-query log)"},
		{c.sloLatency <= 0, "-slo-latency must be positive"},
		{c.sloAvail <= 0 || c.sloAvail >= 1, "-slo-availability must be in (0, 1), e.g. 0.999"},
		{c.admissionOn && c.maxQueue < 0, "-max-queue must be non-negative (0 disables queueing)"},
		{c.admissionOn && c.queueDeadline <= 0, "-queue-deadline must be positive"},
		{c.profileWindow <= 0, "-profile-cpu-window must be positive"},
		{c.profileEvery < 0, "-profile-every must be non-negative (0 = burn-triggered captures only)"},
	} {
		if rule.broken {
			return errors.New(rule.msg)
		}
	}
	return nil
}
