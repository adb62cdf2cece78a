package server

// End-to-end sliding-window tests against the real mpcbfd binary with
// -window: keys verifiably expire after span + one rotation, in-window
// keys never report false negatives, and the generation ring survives a
// SIGKILL + crash recovery (reconstructed from snapshot + WAL).

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/e2e"
	"repro/server/wire"
)

func windowKeys(prefix string, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("win-%s-%05d", prefix, i))
	}
	return keys
}

// waitRotations polls WINDOW_STATS until the rotation counter reaches
// want or the deadline passes.
func waitRotations(t *testing.T, c *client.Client, want uint64, timeout time.Duration) wire.WindowStats {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.WindowStats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Rotations >= want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("rotations stuck at %d, want >= %d", st.Rotations, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestIntegrationWindowExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the daemon binary")
	}
	bin := e2e.BuildDaemon(t)
	dir := t.TempDir()

	// span 2s over 4 generations: one rotation every 500ms, staleness
	// bound 500ms, guaranteed lifetime at least span-span/G = 1.5s.
	d := e2e.StartDaemon(t, e2e.DaemonConfig{Bin: bin, Dir: dir,
		Extra: []string{"-window", "2s", "-generations", "4"}})
	c := e2e.DialRetry(t, d.Addr)
	defer c.Close()

	st, err := c.WindowStats()
	if err != nil {
		t.Fatalf("WINDOW_STATS: %v\n%s", err, d)
	}
	if st.Generations != 4 || st.SpanNanos != uint64(2*time.Second) {
		t.Fatalf("WindowStats = %+v, want G=4 span=2s", st)
	}

	old := windowKeys("old", 200)
	if err := c.InsertBatch(old); err != nil {
		t.Fatal(err)
	}
	// A per-key TTL shorter than the span: expires ahead of its batch.
	if err := c.InsertTTL([]byte("short-lived"), 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	flags, err := c.ContainsBatch(old)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range flags {
		if !ok {
			t.Fatalf("false negative on in-window key %d", i)
		}
	}

	// After span + one rotation every pre-span key must be retired.
	waitRotations(t, c, 5, 10*time.Second)
	// Fresh keys inserted now must be visible while the old cohort is
	// simultaneously gone — expiry is per-generation, not a global
	// reset.
	fresh := windowKeys("fresh", 200)
	if err := c.InsertBatch(fresh); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Contains([]byte("short-lived")); err != nil || ok {
		t.Fatalf("short-TTL key alive after its TTL (ok=%v err=%v)", ok, err)
	}
	flags, err = c.ContainsBatch(old)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range flags {
		if ok {
			t.Fatalf("expired key %d still reported present after span + rotation", i)
		}
	}
	flags, err = c.ContainsBatch(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range flags {
		if !ok {
			t.Fatalf("false negative on fresh in-window key %d", i)
		}
	}

	// The sidecar exposes the ring.
	metrics := httpGet(t, "http://"+d.HTTPAddr+"/metrics")
	for _, want := range []string{
		"mpcbfd_window_generations 4",
		"mpcbfd_window_span_seconds 2",
		"mpcbfd_window_rotations_total",
		`mpcbfd_window_generation_items{gen="0"}`,
		"mpcbfd_window_rotation_duration_seconds_count",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestIntegrationWindowCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the daemon binary")
	}
	bin := e2e.BuildDaemon(t)
	dir := t.TempDir()

	// span 6s over 3 generations: rotation every 2s. Long enough that
	// kill + restart (well under a second) fits inside one rotation
	// period; short enough that the test sees expiry end to end.
	d1 := e2e.StartDaemon(t, e2e.DaemonConfig{Bin: bin, Dir: dir,
		Extra: []string{"-window", "6s", "-generations", "3"}})
	addr := d1.Addr
	c := e2e.DialRetry(t, addr)

	// Cohort A lands pre-rotation; wait until at least one rotation is
	// in the WAL so recovery has a ring to reconstruct, not just keys.
	if err := c.InsertBatch(windowKeys("a", 100)); err != nil {
		t.Fatal(err)
	}
	waitRotations(t, c, 1, 10*time.Second)

	// Stream cohort B and SIGKILL mid-stream.
	var acked atomic.Int64
	insertDone := make(chan struct{})
	go func() {
		defer close(insertDone)
		for i := 0; i < 20000; i++ {
			if err := c.Insert([]byte(fmt.Sprintf("win-b-%05d", i))); err != nil {
				return // kill landed; everything before i was acked
			}
			acked.Add(1)
		}
	}()
	deadline := time.Now().Add(20 * time.Second)
	for acked.Load() < 300 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d inserts acked before deadline\n%s", acked.Load(), d1)
		}
		time.Sleep(time.Millisecond)
	}
	// Snapshot the ring as close to the kill as possible; a rotation
	// may still sneak between the read and the signal, so recovery is
	// allowed to land one past it.
	c2 := e2e.DialRetry(t, addr)
	pre, err := c2.WindowStats()
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	d1.Kill()
	<-insertDone
	c.Close()
	n := int(acked.Load())
	t.Logf("killed daemon with %d acked inserts, ring at head=%d rotations=%d", n, pre.Head, pre.Rotations)

	// Restart: the generation ring is rebuilt from snapshot + WAL.
	d2 := d1.Restart(t)
	c3 := e2e.DialRetry(t, addr)
	defer c3.Close()

	post, err := c3.WindowStats()
	if err != nil {
		t.Fatalf("WINDOW_STATS after recovery: %v\n%s", err, d2)
	}
	if post.Generations != 3 {
		t.Fatalf("recovered ring has %d generations, want 3", post.Generations)
	}
	if post.Rotations != pre.Rotations && post.Rotations != pre.Rotations+1 {
		t.Fatalf("recovered rotations = %d, want %d or %d\n%s",
			post.Rotations, pre.Rotations, pre.Rotations+1, d2)
	}
	if want := uint32((uint64(pre.Head) + post.Rotations - pre.Rotations) % 3); post.Head != want {
		t.Fatalf("recovered head = %d, want %d (pre head %d, rotations %d->%d)",
			post.Head, want, pre.Head, pre.Rotations, post.Rotations)
	}

	// Every acked cohort-B key was inserted within the last rotation
	// period, so post-restart it still has at least span-span/G of
	// guaranteed lifetime: zero false negatives allowed.
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("win-b-%05d", i))
	}
	const batch = 256
	for off := 0; off < n; off += batch {
		end := min(off+batch, n)
		flags, err := c3.ContainsBatch(keys[off:end])
		if err != nil {
			t.Fatal(err)
		}
		for j, ok := range flags {
			if !ok {
				t.Fatalf("acked key %d lost across crash recovery", off+j)
			}
		}
	}

	// The recovered ring must keep aging: after span + one rotation
	// from now, cohort B is gone.
	waitRotations(t, c3, post.Rotations+4, 15*time.Second)
	for off := 0; off < n; off += batch {
		end := min(off+batch, n)
		flags, err := c3.ContainsBatch(keys[off:end])
		if err != nil {
			t.Fatal(err)
		}
		for j, ok := range flags {
			if ok {
				t.Fatalf("key %d survived past the window after crash recovery", off+j)
			}
		}
	}
}
