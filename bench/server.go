package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// serverProc is one live gsacs-server child.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	// setup is process start to first /healthz 200: file load, reasoner
	// materialization and, with a data directory, WAL seed or recovery.
	setup time.Duration
	wait  chan error // receives cmd.Wait's result once
}

// startServer launches the real binary with only the flags the issue
// allows (-addr, -addr-file, -data, -policies and, for the durable workload,
// -data-dir); every other flag keeps its default. It returns once /healthz
// answers 200.
func startServer(bin, dir, data, policies, dataDir string) (*serverProc, error) {
	addrFile := filepath.Join(dir, "addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-data", data, "-policies", policies}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	logFile, err := os.OpenFile(filepath.Join(dir, "server.stderr"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logFile
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	s.wait = exited

	client := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(120 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-exited:
			exited <- err
			return nil, fmt.Errorf("gsacs-server exited during start-up: %v (see %s)", err, logFile.Name())
		default:
		}
		if s.base == "" {
			if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
				s.base = "http://" + strings.TrimSpace(string(raw))
			}
		}
		if s.base != "" {
			if resp, err := client.Get(s.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					s.setup = time.Since(start)
					return s, nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("gsacs-server not ready after %s", time.Since(start))
}

// kill sends SIGKILL — the crash the durable workload recovers from, and the
// cheapest stop for an in-memory server — and waits for the child to end.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill() // already-exited is the only failure, and is fine
	<-s.wait
}

// peakRSSMB is the child's VmHWM: the most resident memory it ever held.
func (s *serverProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// cpuSeconds returns user+system CPU time of pid from /proc/<pid>/stat
// (0 = this process). Linux reports it in clock ticks of 1/100 s.
func cpuSeconds(pid int) float64 {
	name := "/proc/self/stat"
	if pid != 0 {
		name = fmt.Sprintf("/proc/%d/stat", pid)
	}
	raw, err := os.ReadFile(name)
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			// The WAL garbage-collects segments while we walk.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
