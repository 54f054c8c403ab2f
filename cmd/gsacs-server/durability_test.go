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
	"slices"
	"strings"
	"testing"
	"time"
)

// TestValidateFlags parses real argument lists through register, so every
// case starts from the defaults the binary ships and perturbs one flag.
func TestValidateFlags(t *testing.T) {
	peer := []string{"-source", "http://p"}
	with := func(base []string, more ...string) []string { return append(slices.Clone(base), more...) }

	// The default argument list of each of the four roles must validate.
	roles := map[role][]string{
		standalone: nil,
		leader:     {"-data-dir", "/tmp/x"},
		follower:   {"-follow", "http://leader:8080"},
		router:     {"-source", "http://replica1:8081", "-source", "http://replica2:8082"},
	}
	for want, args := range roles {
		cfg := parseConfig(t, args...)
		if err := cfg.validate(); err != nil {
			t.Errorf("default %s config %q rejected: %v", want, args, err)
		}
		if got := cfg.role(); got != want {
			t.Errorf("%q is a %s, want %s", args, got, want)
		}
	}

	rejected := map[string][]string{
		"empty addr":               {"-addr", ""},
		"policies without data":    {"-policies", "p.ttl"},
		"data without policies":    {"-data", "d.ttl"},
		"zero sites":               {"-sites", "0"},
		"negative audit":           {"-audit", "-1"},
		"negative query timeout":   {"-query-timeout", "-1s"},
		"bogus fsync policy":       {"-fsync", "sometimes"},
		"negative snapshot-every":  {"-snapshot-every", "-1"},
		"fsync without data-dir":   {"-fsync", "off"},
		"zero source timeout":      with(peer, "-source-timeout", "0"),
		"zero retry max":           with(peer, "-retry-max", "0"),
		"zero retry base":          with(peer, "-retry-base", "0"),
		"negative retry base":      with(peer, "-retry-base", "-20ms"),
		"zero slo latency":         {"-slo-latency", "0"},
		"slo availability 1":       {"-slo-availability", "1"},
		"negative slo avail":       {"-slo-availability", "-0.5"},
		"follow with data-dir":     with(roles[follower], "-data-dir", "/tmp/x"),
		"follow with sources":      with(roles[follower], peer...),
		"follow with negative lag": with(roles[follower], "-max-replica-lag", "-1s"),
		"router with data-dir":     with(roles[router], "-data-dir", "/tmp/x"),
		"router with writer-role":  with(roles[router], "-writer-role", "Writer"),
		"cluster without sources":  {"-cluster"},
		"negative trace buffer":    {"-trace-buffer", "-1"},
		"negative slow-query":      {"-slow-query-threshold", "-1s"},
		"negative max-queue":       {"-max-queue", "-1"},
		"zero queue deadline":      {"-queue-deadline", "0"},
		"zero profile window":      {"-profile-cpu-window", "0"},
		"negative profile cadence": {"-profile-every", "-1s"},
	}
	for name, args := range rejected {
		if err := parseConfig(t, args...).validate(); err == nil {
			t.Errorf("%s %q: accepted, want error", name, args)
		}
	}

	accepted := map[string][]string{
		"data-dir with interval fsync":                  {"-data-dir", "/tmp/x", "-fsync", "interval"},
		"custom dataset with zero sites":                {"-data", "d.ttl", "-policies", "p.ttl", "-sites", "0"},
		"source knobs irrelevant without a source":      {"-retry-base", "0", "-retry-max", "0", "-source-timeout", "0"},
		"admission knobs irrelevant when admission off": {"-admission=false", "-max-queue", "-1", "-queue-deadline", "0"},
		"follower mirroring the leader's policy flags":  with(roles[follower], "-sites", "3", "-writer-role", "Writer"),
	}
	for name, args := range accepted {
		if err := parseConfig(t, args...).validate(); err != nil {
			t.Errorf("%s %q rejected: %v", name, args, err)
		}
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
		"-sites", "3", "-seed", "7", "-audit", "64",
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
	for flagName, args := range map[string][]string{
		"-fsync":       {"-fsync", "sometimes", "-data-dir", t.TempDir()},
		"-data-dir":    {"-source", "http://127.0.0.1:1", "-data-dir", t.TempDir()},
		"-writer-role": {"-source", "http://127.0.0.1:1", "-writer-role", "Writer"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if err == nil {
			t.Fatalf("%q accepted; output:\n%s", args, out)
		}
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%q: exit = %v, want code 2; output:\n%s", args, err, out)
		}
		if !bytes.Contains(out, []byte(flagName)) || !bytes.Contains(out, []byte("Usage")) {
			t.Errorf("%q: usage error not printed:\n%s", args, out)
		}
	}
}
