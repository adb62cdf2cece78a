// Package e2e is the shared daemon harness for end-to-end tests: build
// the real mpcbfd binary (once per test process), spawn it on loopback
// ports the kernel picks (read back from its log, so parallel test
// packages never race for a port), wait for it to serve, and
// SIGKILL/restart it on the same data directory and addresses. The
// crash-recovery, replication, windowing, namespace, observability, and
// fault-simulation tests all drive real processes through this package
// instead of each carrying its own copy of the spawn/kill/wait-ready
// plumbing.
package e2e

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/client"
)

var buildOnce struct {
	sync.Once
	bin string
	err error
}

// BuildDaemon compiles cmd/mpcbfd and returns the binary path. The
// build runs once per test process and is shared by every test in the
// package — rebuilding an unchanged binary per test was the slowest
// line in the old per-file helpers.
func BuildDaemon(t testing.TB) string {
	t.Helper()
	buildOnce.Do(func() {
		root, err := findRoot()
		if err != nil {
			buildOnce.err = err
			return
		}
		dir, err := os.MkdirTemp("", "mpcbfd-e2e-")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "mpcbfd")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/mpcbfd")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildOnce.err = fmt.Errorf("go build ./cmd/mpcbfd: %w\n%s", err, out)
			return
		}
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.bin
}

// findRoot walks up from the test's working directory to the module
// root (the directory holding go.mod), so the harness works from any
// package depth.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("e2e: no go.mod above working directory")
		}
		dir = parent
	}
}

// syncBuffer guards daemon output: exec's pipe goroutine writes while
// the test reads for assertions and failure dumps.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// DaemonConfig describes one mpcbfd process. Zero values get the
// shared e2e defaults (2MiB filter, 20k items, 4 shards, fsync always,
// no snapshot timer, 5s drain) so tests only state what they vary.
type DaemonConfig struct {
	// Bin is the binary from BuildDaemon.
	Bin string
	// Dir is the data directory.
	Dir string
	// ReplicateFrom makes the node a read replica of the given primary.
	ReplicateFrom string
	// Chaos exposes the /chaos failpoint endpoint on the HTTP sidecar.
	Chaos bool
	// Extra is appended verbatim after the defaults, so it can override
	// them (flag packages take the last occurrence).
	Extra []string
}

// Daemon is one live mpcbfd process.
type Daemon struct {
	// Addr, HTTPAddr and DebugAddr are the loopback addresses the
	// daemon's wire, HTTP sidecar and pprof debug listeners bound.
	Addr, HTTPAddr, DebugAddr string

	cfg  DaemonConfig
	cmd  *exec.Cmd
	out  *syncBuffer
	done chan struct{} // closed once the process is reaped
	err  error         // exit status, set before done closes
}

// Output returns everything the daemon has written to stdout/stderr.
func (d *Daemon) Output() string { return d.out.String() }

// String makes %s-formatting a daemon in t.Fatalf dump its output.
func (d *Daemon) String() string { return d.out.String() }

// Signal delivers sig to the process.
func (d *Daemon) Signal(sig os.Signal) error { return d.cmd.Process.Signal(sig) }

// Wait blocks until the process exits and returns its exit error.
func (d *Daemon) Wait() error {
	<-d.done
	return d.err
}

// Kill SIGKILLs the daemon and reaps it — the crash half of every
// crash-recovery test. Safe to call on an already-dead process.
func (d *Daemon) Kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// StartDaemon launches one mpcbfd with the shared defaults plus cfg on
// loopback ports the kernel picks, and returns once it serves, with the
// addresses it bound. A kill-and-reap cleanup is registered.
func StartDaemon(t testing.TB, cfg DaemonConfig) *Daemon {
	t.Helper()
	const loopback = "127.0.0.1:0"
	return start(t, cfg, loopback, loopback, loopback)
}

// Restart launches a new daemon with d's configuration on the addresses
// d bound — the recovery half of every crash-recovery test.
func (d *Daemon) Restart(t testing.TB) *Daemon {
	t.Helper()
	return start(t, d.cfg, d.Addr, d.HTTPAddr, d.DebugAddr)
}

func start(t testing.TB, cfg DaemonConfig, addr, httpAddr, debugAddr string) *Daemon {
	t.Helper()
	args := []string{
		"-addr", addr, "-http", httpAddr, "-debug-addr", debugAddr, "-dir", cfg.Dir,
		"-mem", "2097152", "-n", "20000", "-shards", "4",
		"-fsync", "always", "-snapshot-interval", "0",
		"-drain-timeout", "5s",
	}
	if cfg.ReplicateFrom != "" {
		args = append(args, "-replicate-from", cfg.ReplicateFrom)
	}
	if cfg.Chaos {
		args = append(args, "-chaos")
	}
	args = append(args, cfg.Extra...)
	cmd := exec.Command(cfg.Bin, args...)
	out := &syncBuffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &Daemon{cfg: cfg, cmd: cmd, out: out, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	t.Cleanup(d.Kill)

	// mpcbfd binds every listener before it logs "serving", and logs
	// each bound address first on its line.
	deadline := time.After(30 * time.Second)
	for d.Addr == "" {
		select {
		case <-d.done:
			t.Fatalf("mpcbfd exited before serving: %v\n%s", d.err, d)
		case <-deadline:
			t.Fatalf("mpcbfd did not log serving within 30s\n%s", d)
		case <-time.After(10 * time.Millisecond):
		}
		log := d.Output()
		d.Addr = boundAddr(log, "serving")
		d.HTTPAddr = boundAddr(log, "http sidecar listening")
		d.DebugAddr = boundAddr(log, "debug listener with pprof")
	}
	return d
}

// boundAddr returns the addr attribute of mpcbfd's log line with message
// msg, in the text (msg="..." addr=...) or JSON ("msg":"...","addr":"...")
// log format, or "" when no such line has been written yet.
func boundAddr(log, msg string) string {
	re := regexp.MustCompile(`msg"?[=:]"?` + regexp.QuoteMeta(msg) + `"?[ ,]"?addr"?[=:]"?([^"\s]+)`)
	if m := re.FindStringSubmatch(log); m != nil {
		return m[1]
	}
	return ""
}

// DialRetry waits for the daemon to accept connections, then returns a
// connected client. It fails the test after 15s.
func DialRetry(t testing.TB, addr string, opts ...client.Option) *client.Client {
	t.Helper()
	opts = append([]client.Option{client.WithTimeout(5 * time.Second)}, opts...)
	deadline := time.Now().Add(15 * time.Second)
	for {
		c, err := client.Dial(addr, opts...)
		if err == nil {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
