package server

// Multi-tenant end-to-end test against the real mpcbfd binary: 200
// namespaces with mixed geometries under a 64 MiB quota (so LRU
// eviction runs continuously), concurrent writers, SIGKILL mid-stream,
// restart, and a byte-mirror replica. The contract under test:
//
//   - every acknowledged (namespace, key) survives the kill — including
//     keys whose namespace was evicted to disk and whose WAL records
//     straddle the evict/recover boundary (the WAL never rotates here:
//     -snapshot-interval 0);
//   - evicted namespaces recover transparently on touch with zero loss;
//   - a replica attached after the crash converges to per-namespace
//     DUMPs byte-identical to the primary's.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/e2e"
	"repro/server/wire"
)

const (
	nsE2ECount   = 200
	nsE2EWriters = 8
	nsE2EBatch   = 40
)

func nsE2EName(i int) string { return fmt.Sprintf("t%03d", i) }

// nsE2EDial is e2e.DialRetry with the response frame cap raised past
// the largest namespace dump (the 1 MiB-geometry tenants marshal to
// just over the client's 1 MiB default) and a timeout generous enough
// for dumps that first recover an evicted namespace on a loaded daemon.
func nsE2EDial(t *testing.T, addr string) *client.Client {
	t.Helper()
	return e2e.DialRetry(t, addr, client.WithTimeout(15*time.Second), client.WithMaxFrame(8<<20))
}

func nsE2EKeys(ns, batch int) [][]byte {
	keys := make([][]byte, nsE2EBatch)
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("ns%03d-b%03d-k%02d", ns, batch, k))
	}
	return keys
}

func TestIntegrationNamespaces(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the daemon binary")
	}
	bin := e2e.BuildDaemon(t)
	dir := t.TempDir()
	cfg := e2e.DaemonConfig{Bin: bin, Dir: dir, Extra: []string{"-ns-quota", "67108864"}} // 64 MiB

	// Phase 1: create 200 namespaces with mixed geometries. The summed
	// footprint (≈116 MiB) exceeds the quota, so roughly half are
	// resident at any moment and every workload phase exercises
	// eviction and recover-on-touch.
	d1 := e2e.StartDaemon(t, cfg)
	addr := d1.Addr
	admin := e2e.DialRetry(t, addr)
	for i := 0; i < nsE2ECount; i++ {
		cfg := wire.NsConfig{MemoryBits: 1 << (21 + uint(i%3)), ExpectedItems: 10000}
		if err := admin.CreateNamespace(nsE2EName(i), cfg); err != nil {
			t.Fatalf("create %s: %v", nsE2EName(i), err)
		}
	}
	admin.Close()

	// Phase 2: concurrent writers, one connection each, every writer
	// cycling its own 25 namespaces in batch rounds. Only batches whose
	// InsertBatch returned nil are recorded as acked.
	var mu sync.Mutex
	acked := map[[2]int]bool{} // (namespace index, batch number)
	var perWriter [nsE2EWriters]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nsE2EWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(addr, client.WithTimeout(10*time.Second))
			if err != nil {
				t.Errorf("writer %d dial: %v", w, err)
				return
			}
			defer cl.Close()
			per := nsE2ECount / nsE2EWriters
			for batch := 0; ; batch++ {
				for n := w * per; n < (w+1)*per; n++ {
					if err := cl.Namespace(nsE2EName(n)).InsertBatch(nsE2EKeys(n, batch)); err != nil {
						return // the kill landed; everything recorded so far was acked
					}
					mu.Lock()
					acked[[2]int{n, batch}] = true
					mu.Unlock()
					perWriter[w].Add(1)
				}
			}
		}(w)
	}

	// SIGKILL once every writer has finished at least two full rounds:
	// by then each namespace holds ≥ 2 acked batches and the quota has
	// forced evictions mid-stream.
	deadline := time.Now().Add(60 * time.Second)
	for {
		ready := true
		for w := range perWriter {
			if perWriter[w].Load() < 2*int64(nsE2ECount/nsE2EWriters) {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writers too slow before kill\n%s", d1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.Kill()
	wg.Wait()
	mu.Lock()
	total := len(acked)
	mu.Unlock()
	t.Logf("killed daemon with %d acked batches (%d keys)", total, total*nsE2EBatch)

	// Phase 3: restart and require every acked (namespace, key) back.
	d2 := d1.Restart(t)
	c2 := nsE2EDial(t, addr)
	defer c2.Close()

	perNS := make([][][]byte, nsE2ECount)
	mu.Lock()
	for nb := range acked {
		perNS[nb[0]] = append(perNS[nb[0]], nsE2EKeys(nb[0], nb[1])...)
	}
	mu.Unlock()
	for n, keys := range perNS {
		if len(keys) == 0 {
			t.Fatalf("namespace %s has no acked batches; the kill landed too early", nsE2EName(n))
		}
		flags, err := c2.Namespace(nsE2EName(n)).ContainsBatch(keys)
		if err != nil {
			t.Fatalf("%s contains batch: %v", nsE2EName(n), err)
		}
		for j, ok := range flags {
			if !ok {
				t.Fatalf("acked key %q lost from %s after crash", keys[j], nsE2EName(n))
			}
		}
	}
	names, err := c2.ListNamespaces()
	if err != nil || len(names) != nsE2ECount {
		t.Fatalf("recovered namespace count = %d, %v; want %d", len(names), err, nsE2ECount)
	}

	// The quota must have evicted namespaces during the workload; the
	// recovered daemon re-runs the same pressure during replay, so the
	// post-restart counters must show evictions AND recoveries.
	metrics := httpGet(t, "http://"+d2.HTTPAddr+"/metrics")
	if sumPromFamily(t, metrics, "mpcbfd_ns_evictions_total{") == 0 {
		t.Error("no namespace evictions under a 64 MiB quota for ~116 MiB of filters")
	}
	if sumPromFamily(t, metrics, "mpcbfd_ns_recoveries_total{") == 0 {
		t.Error("no namespace recoveries despite quota churn")
	}
	if !strings.Contains(metrics, fmt.Sprintf("mpcbfd_ns_count %d", nsE2ECount)) {
		t.Errorf("/metrics missing mpcbfd_ns_count %d", nsE2ECount)
	}

	// Phase 4: attach a byte-mirror replica and require per-namespace
	// DUMPs to converge to byte equality, polled with a deadline.
	raddr := e2e.StartDaemon(t, e2e.DaemonConfig{Bin: bin, Dir: t.TempDir(),
		ReplicateFrom: addr, Extra: cfg.Extra}).Addr
	rc := nsE2EDial(t, raddr)
	defer func() { rc.Close() }()

	// A dump of an evicted namespace recovers it first, and while the
	// replica is still swallowing the ~116 MiB bootstrap its store lock
	// is busy — individual dumps can time out. Re-dial on any error and
	// keep polling until the deadline.
	waitReplicaSync := time.Now().Add(120 * time.Second)
	for n := 0; n < nsE2ECount; n++ {
		name := nsE2EName(n)
		want, err := c2.Namespace(name).Dump()
		if err != nil {
			t.Fatalf("primary dump %s: %v", name, err)
		}
		for {
			got, err := rc.Namespace(name).Dump()
			if err == nil && string(got) == string(want) {
				break
			}
			if time.Now().After(waitReplicaSync) {
				t.Fatalf("replica dump for %s never converged (err=%v, %d vs %d bytes)",
					name, err, len(got), len(want))
			}
			if err != nil {
				rc.Close()
				time.Sleep(200 * time.Millisecond)
				rc = nsE2EDial(t, raddr)
				continue
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
}

// sumPromFamily sums the values of every sample whose series starts
// with prefix (family name including the opening label brace).
func sumPromFamily(t *testing.T, metrics, prefix string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}
