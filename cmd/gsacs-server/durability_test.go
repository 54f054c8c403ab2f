package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// validFlags is a baseline configuration that must pass validation; each
// test case perturbs one field.
func validFlags() flagConfig {
	return flagConfig{
		addr: ":8080", sites: 12, cache: 32, auditCap: 256, logLevel: "info",
		queryTimeout: 30 * time.Second, drainTimeout: 10 * time.Second,
		maxBodyBytes: 1 << 20, fsync: "always",
		fsyncInterval: 50 * time.Millisecond, snapshotEvery: 10000,
		commitBatch:   128,
		sourceTimeout: 2 * time.Second, breakerThresh: 5, retryMax: 3,
		sloLatency: 100 * time.Millisecond, sloAvail: 0.999,
		admissionOn: true, maxQueue: 128, queueDeadline: 100 * time.Millisecond,
	}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(validFlags()); err != nil {
		t.Fatalf("baseline config rejected: %v", err)
	}
	cases := map[string]func(*flagConfig){
		"empty addr":              func(c *flagConfig) { c.addr = "" },
		"policies without data":   func(c *flagConfig) { c.policyFile = "p.ttl" },
		"data without policies":   func(c *flagConfig) { c.dataFile = "d.ttl" },
		"zero sites":              func(c *flagConfig) { c.sites = 0 },
		"negative cache":          func(c *flagConfig) { c.cache = -1 },
		"negative audit":          func(c *flagConfig) { c.auditCap = -1 },
		"bogus log level":         func(c *flagConfig) { c.logLevel = "verbose" },
		"negative query timeout":  func(c *flagConfig) { c.queryTimeout = -time.Second },
		"zero drain timeout":      func(c *flagConfig) { c.drainTimeout = 0 },
		"negative body cap":       func(c *flagConfig) { c.maxBodyBytes = -1 },
		"bogus fsync policy":      func(c *flagConfig) { c.fsync = "sometimes" },
		"zero fsync interval":     func(c *flagConfig) { c.fsyncInterval = 0 },
		"negative snapshot-every": func(c *flagConfig) { c.snapshotEvery = -1 },
		"fsync without data-dir":  func(c *flagConfig) { c.fsync = "off" },
		"zero commit max batch":   func(c *flagConfig) { c.commitBatch = 0 },
		"negative commit delay":   func(c *flagConfig) { c.commitDelay = -time.Millisecond },
		"zero source timeout":     func(c *flagConfig) { c.sources = []string{"http://p"}; c.sourceTimeout = 0 },
		"zero breaker threshold":  func(c *flagConfig) { c.sources = []string{"http://p"}; c.breakerThresh = 0 },
		"zero retry max":          func(c *flagConfig) { c.sources = []string{"http://p"}; c.retryMax = 0 },
		"zero slo latency":        func(c *flagConfig) { c.sloLatency = 0 },
		"slo availability 1":      func(c *flagConfig) { c.sloAvail = 1 },
		"negative slo avail":      func(c *flagConfig) { c.sloAvail = -0.5 },
		"follow with data-dir": func(c *flagConfig) {
			c.follow = "http://leader:8080"
			c.dataDir = "/tmp/x"
		},
		"follow with sources": func(c *flagConfig) {
			c.follow = "http://leader:8080"
			c.sources = []string{"http://p"}
		},
		"follow with router": func(c *flagConfig) {
			c.follow = "http://leader:8080"
			c.router = true
		},
		"follow with negative lag": func(c *flagConfig) {
			c.follow = "http://leader:8080"
			c.maxReplicaLag = -time.Second
		},
		"router without sources":         func(c *flagConfig) { c.router = true },
		"retain-min-seq without datadir": func(c *flagConfig) { c.retainMinSeq = 10 },
		"negative max-queue":             func(c *flagConfig) { c.maxQueue = -1 },
		"zero queue deadline":            func(c *flagConfig) { c.queueDeadline = 0 },
	}
	for name, mutate := range cases {
		c := validFlags()
		mutate(&c)
		if err := validateFlags(c); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}

	// Valid variants that must NOT be rejected.
	ok := validFlags()
	ok.dataDir = "/tmp/x"
	ok.fsync = "interval"
	if err := validateFlags(ok); err != nil {
		t.Errorf("data-dir with interval fsync rejected: %v", err)
	}
	ok = validFlags()
	ok.dataFile, ok.policyFile = "d.ttl", "p.ttl"
	ok.sites = 0 // irrelevant when data files are given
	if err := validateFlags(ok); err != nil {
		t.Errorf("custom dataset with zero sites rejected: %v", err)
	}
	ok = validFlags()
	ok.follow = "http://leader:8080"
	ok.maxReplicaLag = 5 * time.Second
	if err := validateFlags(ok); err != nil {
		t.Errorf("plain follower rejected: %v", err)
	}
	ok = validFlags()
	ok.router = true
	ok.sources = []string{"http://replica1:8081", "http://replica2:8082"}
	if err := validateFlags(ok); err != nil {
		t.Errorf("router over replicas rejected: %v", err)
	}
	ok = validFlags()
	ok.dataDir = "/tmp/x"
	ok.retainMinSeq = 42
	if err := validateFlags(ok); err != nil {
		t.Errorf("manual retention floor on a durable leader rejected: %v", err)
	}
	ok = validFlags()
	ok.admissionOn = false
	ok.maxQueue = -1
	ok.queueDeadline = 0
	if err := validateFlags(ok); err != nil {
		t.Errorf("admission knobs irrelevant when admission is off: %v", err)
	}
}

// --- crash-recovery integration test -------------------------------------

func buildServerBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gsacs-server-test")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDurableServer launches the binary against dataDir and waits for the
// readiness transition (503 recovering -> 200 ok on /healthz).
func startDurableServer(t *testing.T, bin, dataDir string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-data-dir", dataDir, "-fsync", "always",
		"-sites", "3", "-seed", "7", "-audit", "64", "-cache", "0",
		"-snapshot-every", "0",
		"-writer-role", "Writer",
	)
	var logBuf bytes.Buffer
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	deadline := time.Now().Add(30 * time.Second)
	var base string
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never wrote -addr-file; logs:\n%s", logBuf.String())
		}
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			base = "http://" + string(b)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for {
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready; logs:\n%s", logBuf.String())
		}
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, base, &logBuf
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// queryRows runs a SELECT and returns the result rows.
func queryRows(t *testing.T, base, role, q string) []map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/v1/query?role=" + role + "&q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var parsed struct {
		Results []map[string]string `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		t.Fatalf("query decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d", resp.StatusCode)
	}
	return parsed.Results
}

// TestCrashRecoverySIGKILL is the acceptance scenario: populate a durable
// server over HTTP, SIGKILL it (no drain, no clean close), restart it on the
// same directory, and verify every acknowledged mutation — and the audit
// trail accounting for it — survived.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server binary")
	}
	bin := buildServerBinary(t)
	dataDir := filepath.Join(t.TempDir(), "repo")

	cmd, base, logs := startDurableServer(t, bin, dataDir)

	// Find a scenario feature to write to.
	rows := queryRows(t, base, "Writer", "SELECT ?s WHERE { ?s a <http://grdf.org/app#ChemSite> }")
	if len(rows) == 0 {
		t.Fatalf("no ChemSite rows; logs:\n%s", logs.String())
	}
	site := strings.Trim(rows[0]["s"], "<>")

	// Ack a handful of inserts with -fsync always: each one is durable the
	// moment the 200 comes back.
	const notes = 5
	for i := 0; i < notes; i++ {
		body := fmt.Sprintf(`[{"op":"insert","triples":"<%s> <http://example.org/crashNote> \"note-%d\" ."}]`, site, i)
		resp, err := http.Post(base+"/v1/mutate?role=Writer", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b := new(bytes.Buffer)
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %d = %d %s; logs:\n%s", i, resp.StatusCode, b.String(), logs.String())
		}
	}

	// Crash: SIGKILL, no drain, no Close. Anything not fsynced is gone —
	// the acked inserts must not be.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	_, base2, logs2 := startDurableServer(t, bin, dataDir)
	rows = queryRows(t, base2, "Writer",
		"SELECT ?o WHERE { <"+site+"> <http://example.org/crashNote> ?o }")
	if len(rows) != notes {
		t.Fatalf("recovered %d/%d acked inserts; logs:\n%s", len(rows), notes, logs2.String())
	}

	// The audit trail survived alongside the data it accounts for.
	resp, err := http.Get(base2 + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var audit struct {
		Total   int `json:"total"`
		Entries []struct {
			Subject string `json:"subject"`
			Action  string `json:"action"`
			Allowed bool   `json:"allowed"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&audit); err != nil {
		t.Fatal(err)
	}
	writerMods := 0
	for _, e := range audit.Entries {
		if strings.HasSuffix(e.Subject, "Writer") && strings.HasSuffix(e.Action, "Modify") && e.Allowed {
			writerMods++
		}
	}
	if writerMods < notes {
		t.Errorf("audit trail holds %d Writer Modify entries, want >= %d (total %d)",
			writerMods, notes, audit.Total)
	}
}

// TestServerRecoveringHealthz: the server binds before recovery and reports
// "recovering" on /healthz rather than refusing connections.
func TestServerRecoveringHealthz(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real server binary")
	}
	bin := buildServerBinary(t)
	// A fresh directory recovers fast, so the window is tiny; accept either
	// "recovering" or "ok" but require a well-formed answer immediately
	// after the address is published.
	_, base, _ := startDurableServer(t, bin, filepath.Join(t.TempDir(), "repo"))
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
}

// TestValidateFlagsExitCode drives the real binary with a bad flag
// combination and checks the fail-fast behaviour: exit code 2 and a usage
// message on stderr.
func TestValidateFlagsExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real server binary")
	}
	bin := buildServerBinary(t)
	cmd := exec.Command(bin, "-fsync", "sometimes", "-data-dir", t.TempDir())
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err == nil {
		t.Fatalf("bad -fsync accepted; output:\n%s", out)
	}
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want code 2; output:\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("-fsync")) || !bytes.Contains(out, []byte("Usage")) {
		t.Errorf("usage error not printed:\n%s", out)
	}
}
