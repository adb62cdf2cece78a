package server

// End-to-end crash-recovery test against the real mpcbfd binary: build
// it, serve on a loopback port, SIGKILL it mid-insert-stream, restart on
// the same data directory, and require every acknowledged mutation back.
// This is the durability contract (SyncAlways: ack implies fsync'd WAL
// record) exercised the only honest way — across a process boundary.
// The build/spawn/kill plumbing lives in repro/internal/e2e.

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/e2e"
)

func intKey(i int) []byte { return []byte(fmt.Sprintf("crash-key-%06d", i)) }

func TestIntegrationCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the daemon binary")
	}
	bin := e2e.BuildDaemon(t)
	dir := t.TempDir()

	// Phase 1: serve, stream inserts, SIGKILL mid-stream.
	d1 := e2e.StartDaemon(t, e2e.DaemonConfig{Bin: bin, Dir: dir})
	addr := d1.Addr
	c := e2e.DialRetry(t, addr)

	var acked atomic.Int64
	insertDone := make(chan struct{})
	go func() {
		defer close(insertDone)
		for i := 0; i < 20000; i++ {
			if err := c.Insert(intKey(i)); err != nil {
				return // the kill landed; everything before i was acked
			}
			acked.Add(1)
		}
	}()

	const killAfter = 500
	deadline := time.Now().Add(20 * time.Second)
	for acked.Load() < killAfter {
		if time.Now().After(deadline) {
			t.Fatalf("only %d inserts acked before deadline\n%s", acked.Load(), d1)
		}
		time.Sleep(time.Millisecond)
	}
	d1.Kill()
	<-insertDone
	c.Close()
	n := int(acked.Load())
	t.Logf("killed daemon with %d acked inserts", n)

	// Phase 2: restart on the same directory; every acked insert must be
	// present (zero false negatives — acked means fsync'd under
	// -fsync always).
	d2 := d1.Restart(t)
	c2 := e2e.DialRetry(t, addr)
	defer c2.Close()

	got, err := c2.Len()
	if err != nil {
		t.Fatal(err)
	}
	// Len may exceed acked by at most one: an insert can be applied and
	// logged but killed before the ack reached the client.
	if got < n || got > n+1 {
		t.Fatalf("recovered Len = %d, want %d or %d\n%s", got, n, n+1, d2)
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = intKey(i)
	}
	const batch = 256
	for off := 0; off < n; off += batch {
		end := off + batch
		if end > n {
			end = n
		}
		flags, err := c2.ContainsBatch(keys[off:end])
		if err != nil {
			t.Fatal(err)
		}
		for j, ok := range flags {
			if !ok {
				t.Fatalf("acked key %d lost after crash", off+j)
			}
		}
	}

	// The sidecar reports the post-restart workload: replayed records,
	// ops, and a fill ratio matching the recovered population.
	metrics := httpGet(t, "http://"+d2.HTTPAddr+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("mpcbfd_replayed_records %d", got),
		fmt.Sprintf("mpcbfd_filter_len %d", got),
		`mpcbfd_requests_total{op="contains_batch"}`,
		`mpcbfd_requests_total{op="len"} 1`,
		"mpcbfd_filter_fill_ratio ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(httpGet(t, "http://"+d2.HTTPAddr+"/healthz"), "ok") {
		t.Error("/healthz not ok")
	}

	// Phase 3: graceful SIGTERM writes a final snapshot; a third start
	// recovers from it with nothing to replay.
	if err := d2.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d2.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v\n%s", err, d2)
	}
	if !strings.Contains(d2.Output(), "clean shutdown") {
		t.Fatalf("no clean shutdown marker:\n%s", d2)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no final snapshot: %v %v", snaps, err)
	}

	d3 := d2.Restart(t)
	c3 := e2e.DialRetry(t, addr)
	defer c3.Close()
	if got3, err := c3.Len(); err != nil || got3 != got {
		t.Fatalf("post-snapshot Len = %d, %v, want %d", got3, err, got)
	}
	if !strings.Contains(d3.Output(), "replayed=0") {
		t.Fatalf("third start should replay nothing:\n%s", d3)
	}
}
