package experiments

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/federation"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/load"
	"repro/internal/repl"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/wal"
)

// E19Replication measures what read replication buys under failure: the
// Sec 7.1 read mix is fired through a replica-only query router at a
// leader/follower deployment of 1, 2 and 4 WAL-shipping replicas, and one
// replica is killed (connections aborted, replication loop stopped — the
// in-process equivalent of kill -9) a third of the way into the run, then
// restarted at two thirds. A lone replica takes the outage on the chin;
// behind two or more, the router moves each read on past the dead replica
// and keeps the answered rate at 100% while the restarted node bootstraps a
// fresh snapshot and rejoins below the lag bound. Breakers are disabled so
// availability reflects replica liveness alone, not breaker cooldown
// scheduling.
func E19Replication(requests int) *Table {
	if requests <= 0 {
		requests = 600
	}
	t := &Table{
		ID: "E19",
		Title: "WAL-shipping replication: routed read availability through a " +
			"replica kill + rejoin (Sec 7.1 read mix)",
		Columns: []string{"replicas", "requests", "answered", "rate",
			"errors", "client p99", "slo", "rejoin"},
	}
	const (
		sloLatency = 250 * time.Millisecond
		sloAvail   = 0.999
	)
	// Each routed read goes to one replica, so the backend work is the rps
	// whatever the replica count; the rate keeps every arm below saturation
	// and the table reads on availability, not queueing. Test-sized runs
	// drop further: under the race detector every query costs several times
	// more, and a saturated arm would report queueing collapse instead of
	// replication behavior.
	rps, sites := 60.0, 12
	if requests < 300 {
		rps, sites = 30.0, 6
	}
	for _, n := range []int{1, 2, 4} {
		rep, rejoin, err := e19Arm(n, requests, rps, sites, sloLatency, sloAvail)
		if err != nil {
			t.AddNote("arm with %d replicas failed: %v", n, err)
			return t
		}
		answered := rep.Requests - rep.Errors
		verdict := "PASS"
		if !rep.SLO.Pass {
			verdict = "FAIL"
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", rep.Requests),
			fmt.Sprintf("%d", answered),
			fmt.Sprintf("%.2f%%", 100*float64(answered)/float64(rep.Requests)),
			fmt.Sprintf("%d", rep.Errors),
			fmt.Sprintf("%.2fms", rep.Corrected.P99Ms),
			verdict,
			rejoin)
	}
	t.AddNote("one replica killed at 1/3 of the run and restarted at 2/3; the restarted node re-bootstraps from a leader snapshot")
	t.AddNote("answered = non-error responses; a routed read that finds a replica dead moves on to the next, so it errs only when every replica is down")
	t.AddNote("acceptance: with 4 replicas the answered rate is >= 99.9%% and client p99 (corrected) meets the %s SLO through the failure", sloLatency)
	return t
}

// e19Replica is one follower node: a gsacs server over a replicated store
// whose handler can be yanked (kill -9) and replaced by a fresh
// incarnation (restart).
type e19Replica struct {
	srv *httptest.Server

	mu       sync.Mutex
	handler  http.Handler // nil while killed
	follower *repl.Follower
	cancel   context.CancelFunc
}

// start builds a fresh store + engine + follower and swaps them in as the
// node's serving incarnation.
func (r *e19Replica) start(leaderURL string, policies *seconto.Set) error {
	st := store.New()
	engine := gsacs.New(policies, st, gsacs.Options{})
	f, err := repl.NewFollower(st, repl.FollowerOptions{
		LeaderURL: leaderURL,
		MaxLag:    2 * time.Second,
		Retry:     federation.RetryConfig{BaseDelay: 20 * time.Millisecond},
		// Inferences must follow every wholesale snapshot load.
		OnBootstrap: func() {
			engine.MaterializeReasoner(grdf.Ontology(), seconto.Ontology())
		},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	go f.Run(ctx)
	r.mu.Lock()
	r.handler = gsacs.NewServer(engine, nil, gsacs.WithReplStatus(f.Status))
	r.follower = f
	r.cancel = cancel
	r.mu.Unlock()
	return nil
}

// kill stops replication and aborts every subsequent connection, the
// closest in-process stand-in for SIGKILL on the node.
func (r *e19Replica) kill() {
	r.mu.Lock()
	if r.cancel != nil {
		r.cancel()
	}
	r.handler = nil
	r.follower = nil
	r.mu.Unlock()
}

func (r *e19Replica) status() (repl.FollowerStatus, bool) {
	r.mu.Lock()
	f := r.follower
	r.mu.Unlock()
	if f == nil {
		return repl.FollowerStatus{}, false
	}
	return f.Status(), true
}

func (r *e19Replica) serveHTTP(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	h := r.handler
	r.mu.Unlock()
	if h == nil {
		panic(http.ErrAbortHandler)
	}
	h.ServeHTTP(w, req)
}

// e19Arm runs one replica-count trial and returns the client report plus a
// summary of the killed node's rejoin.
func e19Arm(replicas, requests int, rps float64, sites int, sloLatency time.Duration, sloAvail float64) (load.Report, string, error) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 61, Sites: sites})

	// Leader: the scenario dataset over a real WAL repository, served to
	// followers through the wire endpoints.
	dir, err := os.MkdirTemp("", "e19-leader-*")
	if err != nil {
		return load.Report{}, "", err
	}
	defer os.RemoveAll(dir)
	lst := store.New()
	repo, err := wal.Open(lst, wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		return load.Report{}, "", err
	}
	defer repo.Close()
	lst.AddAll(sc.Merged.Triples())
	leader := repl.NewLeader(lst, repo, repl.LeaderOptions{PollTimeout: 250 * time.Millisecond})
	defer leader.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/wal/stream", leader.ServeStream)
	mux.HandleFunc("/v1/wal/snapshot", leader.ServeSnapshot)
	leaderSrv := httptest.NewServer(mux)
	defer leaderSrv.Close()

	// Followers, each behind a stable URL the router keeps pointing at
	// across the kill/restart (a pinned address, as in production).
	nodes := make([]*e19Replica, replicas)
	sources := make([]federation.Source, replicas)
	for i := range nodes {
		node := &e19Replica{}
		node.srv = httptest.NewServer(http.HandlerFunc(node.serveHTTP))
		defer node.srv.Close()
		defer node.kill()
		if err := node.start(leaderSrv.URL, sc.Policies); err != nil {
			return load.Report{}, "", err
		}
		nodes[i] = node
		sources[i] = federation.NewRemoteSource(fmt.Sprintf("replica%d", i+1), node.srv.URL, nil)
	}
	for _, node := range nodes {
		if err := e19WaitReady(node, 10*time.Second); err != nil {
			return load.Report{}, "", err
		}
	}

	// The router: no data of its own, breakers off so the answered rate
	// tracks liveness, not cooldown phase.
	fed, err := federation.New(federation.Config{
		SourceTimeout:  2 * time.Second,
		DisableBreaker: true,
		Retry:          federation.RetryConfig{MaxAttempts: 2, BaseDelay: 20 * time.Millisecond},
	}, sources...)
	if err != nil {
		return load.Report{}, "", err
	}
	router := httptest.NewServer(gsacs.NewServer(
		gsacs.New(sc.Policies, store.New(), gsacs.Options{}), nil,
		gsacs.WithFederator(fed)))
	defer router.Close()

	arms, err := load.ScenarioArms(load.MixConfig{
		BaseURL:     router.URL,
		QueryWeight: 100,
	})
	if err != nil {
		return load.Report{}, "", err
	}

	// The fault schedule: kill the last replica at 1/3, restart it at 2/3.
	duration := time.Duration(float64(requests) / rps * float64(time.Second))
	victim := nodes[len(nodes)-1]
	var restartMu sync.Mutex
	var restartErr error
	killTimer := time.AfterFunc(duration/3, victim.kill)
	defer killTimer.Stop()
	joinTimer := time.AfterFunc(2*duration/3, func() {
		err := victim.start(leaderSrv.URL, sc.Policies)
		restartMu.Lock()
		restartErr = err
		restartMu.Unlock()
	})
	defer joinTimer.Stop()

	res, err := load.Run(context.Background(), load.Config{
		RPS:      rps,
		Duration: duration,
		Arms:     arms,
		SLO:      load.SLO{Latency: sloLatency, Availability: sloAvail},
	})
	if err != nil {
		return load.Report{}, "", err
	}
	restartMu.Lock()
	rerr := restartErr
	restartMu.Unlock()
	if rerr != nil {
		return load.Report{}, "", fmt.Errorf("restart victim: %w", rerr)
	}

	// The restarted node must rejoin: bootstrapped again and back under
	// the lag bound.
	if err := e19WaitReady(victim, 10*time.Second); err != nil {
		return load.Report{}, "", fmt.Errorf("victim never rejoined: %w", err)
	}
	st, _ := victim.status()
	rejoin := fmt.Sprintf("lag %.2fs, %d snapshots", st.LagSeconds, st.SnapshotTransfers)
	return res.Report(), rejoin, nil
}

// e19WaitReady polls a replica until its follower reports ready.
func e19WaitReady(node *e19Replica, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st, ok := node.status(); ok && st.Ready {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, _ := node.status()
	return fmt.Errorf("replica not ready within %s (status %+v)", timeout, st)
}
