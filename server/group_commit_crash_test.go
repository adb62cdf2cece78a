package server

// Crash test for group commit: SIGKILL the daemon while 8 pipelined
// connections are feeding the committer, so the kill lands mid-commit
// round with records in every state — acked, enqueued-but-unacked, and
// in flight on the wire. Recovery must honor both directions of the
// durability contract: every acked record survives (ack implies its
// bytes were fsync'd before the response left), and nothing beyond the
// possibly-sent set appears (an unacked record may be applied or not,
// but a record the client provably never sent must not exist).

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/e2e"
)

func gcKey(writer, i int) []byte {
	return []byte(fmt.Sprintf("gc-w%d-k%06d", writer, i))
}

func TestIntegrationCrashDuringGroupCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the daemon binary")
	}
	bin := e2e.BuildDaemon(t)
	dir := t.TempDir()
	d1 := e2e.StartDaemon(t, e2e.DaemonConfig{Bin: bin, Dir: dir})
	addr := d1.Addr
	e2e.DialRetry(t, addr).Close() // wait for accept

	const (
		writers   = 8
		flushSize = 32
		killAfter = 1500 // total acked inserts across writers
	)
	var (
		ackedTotal atomic.Int64
		wg         sync.WaitGroup
		mu         sync.Mutex
		acked      = make([]int, writers) // per-writer acked prefix length
		inFlight   = make([]int, writers) // keys that may have been applied beyond acked
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithTimeout(10*time.Second))
			if err != nil {
				t.Errorf("writer %d dial: %v", w, err)
				return
			}
			defer c.Close()
			p := c.Pipeline()
			for next := 0; ; {
				for i := 0; i < flushSize; i++ {
					p.Insert(gcKey(w, next+i))
				}
				res, err := p.Flush()
				ok, maybe := 0, 0
				for _, r := range res {
					switch {
					case r.Err == nil:
						ok++
					case errors.Is(r.Err, client.ErrMaybeApplied):
						maybe++
					}
				}
				mu.Lock()
				acked[w] += ok
				inFlight[w] += maybe
				mu.Unlock()
				ackedTotal.Add(int64(ok))
				if err != nil {
					return // the kill landed
				}
				next += flushSize
			}
		}(w)
	}

	deadline := time.Now().Add(30 * time.Second)
	for ackedTotal.Load() < killAfter {
		if time.Now().After(deadline) {
			t.Fatalf("only %d inserts acked before deadline\n%s", ackedTotal.Load(), d1)
		}
		time.Sleep(time.Millisecond)
	}
	// Group commit must actually be engaging under this load: far fewer
	// commit rounds than records. Scrape before the kill.
	metrics := httpGet(t, "http://"+d1.HTTPAddr+"/metrics")
	commits, records := promValue(t, metrics, "mpcbfd_wal_group_commits_total"), promValue(t, metrics, "mpcbfd_wal_records_total")
	if commits == 0 || commits >= records {
		t.Errorf("group commit not coalescing: %d commits for %d records", commits, records)
	}

	d1.Kill()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var nAcked, nPossible int
	for w := 0; w < writers; w++ {
		nAcked += acked[w]
		nPossible += acked[w] + inFlight[w]
	}
	t.Logf("killed daemon mid-group-commit: %d acked, %d more in flight", nAcked, nPossible-nAcked)

	// Recovery: every acked insert present, population bounded by the
	// possibly-sent set.
	d2 := d1.Restart(t)
	c2 := e2e.DialRetry(t, addr)
	defer c2.Close()

	got, err := c2.Len()
	if err != nil {
		t.Fatal(err)
	}
	if got < nAcked || got > nPossible {
		t.Fatalf("recovered Len = %d, want within [%d, %d]\n%s", got, nAcked, nPossible, d2)
	}
	for w := 0; w < writers; w++ {
		keys := make([][]byte, acked[w])
		for i := range keys {
			keys[i] = gcKey(w, i)
		}
		for off := 0; off < len(keys); off += 256 {
			end := min(off+256, len(keys))
			flags, err := c2.ContainsBatch(keys[off:end])
			if err != nil {
				t.Fatal(err)
			}
			for j, present := range flags {
				if !present {
					t.Fatalf("writer %d: acked key %d lost after crash", w, off+j)
				}
			}
		}
	}
	// The replay log line proves recovery came from the WAL, not an
	// fsync that happened to cover unacked bytes.
	if !strings.Contains(d2.Output(), "replayed=") {
		t.Errorf("no replay marker in restart log:\n%s", d2)
	}
}

// promValue extracts an integer sample for a bare (unlabeled) series
// from a Prometheus exposition.
func promValue(t *testing.T, exposition, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			return int64(v)
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
