package server

// Crash test for elastic growth: SIGKILL the daemon while concurrent
// writers are pushing an elastic default chain, an elastic namespace,
// and a windowed namespace past their seed geometries, so the kill can
// land with a growth event (an ELASTIC_GROW barrier and its new head
// generation) anywhere relative to the WAL tail. Recovery must keep
// every acked insert, preserve the chain shape, and be byte-exact: a
// second kill and replay must reproduce the identical dump.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/e2e"
	"repro/server/wire"
)

func elKey(stream string, i int) []byte {
	return []byte(fmt.Sprintf("el-%s-%06d", stream, i))
}

func TestIntegrationElasticCrashMidGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test builds and runs the daemon binary")
	}
	bin := e2e.BuildDaemon(t)
	dir := t.TempDir()
	d1 := e2e.StartDaemon(t, e2e.DaemonConfig{
		Bin: bin, Dir: dir,
		// Small seed geometry: a few thousand keys force several growth
		// events on the default chain.
		Extra: []string{"-elastic", "-mem", "262144", "-n", "800"},
	})
	addr := d1.Addr
	admin := e2e.DialRetry(t, addr)
	defer admin.Close()

	// One elastic and one windowed namespace ride along: growth records
	// and window rotations interleave with the default chain's in the
	// same WAL.
	if err := admin.CreateNamespace("el-ns", wire.NsConfig{
		MemoryBits: 1 << 14, ExpectedItems: 400, Flags: wire.NsFlagElastic,
	}); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateNamespace("win-ns", wire.NsConfig{
		MemoryBits: 1 << 16, ExpectedItems: 500,
		WindowNanos: uint64(time.Hour), Generations: 4,
	}); err != nil {
		t.Fatal(err)
	}

	// Writers batch-insert until the kill severs the connection; only
	// nil-error batches count as acked.
	type stream struct {
		name  string
		write func(c *client.Client, keys [][]byte) error
	}
	streams := []stream{
		{"def0", func(c *client.Client, keys [][]byte) error { return c.InsertBatch(keys) }},
		{"def1", func(c *client.Client, keys [][]byte) error { return c.InsertBatch(keys) }},
		{"ns", func(c *client.Client, keys [][]byte) error { return c.Namespace("el-ns").InsertBatch(keys) }},
		{"win", func(c *client.Client, keys [][]byte) error {
			return c.Namespace("win-ns").InsertTTLBatch(keys, time.Hour)
		}},
	}
	const batch = 16
	var (
		mu    sync.Mutex
		acked = make([][][]byte, len(streams))
		wg    sync.WaitGroup
	)
	for si, st := range streams {
		wg.Add(1)
		go func(si int, st stream) {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithTimeout(10*time.Second))
			if err != nil {
				t.Errorf("writer %s dial: %v", st.name, err)
				return
			}
			defer c.Close()
			for next := 0; ; next += batch {
				keys := make([][]byte, batch)
				for i := range keys {
					keys[i] = elKey(st.name, next+i)
				}
				if err := st.write(c, keys); err != nil {
					return // the kill landed
				}
				mu.Lock()
				acked[si] = append(acked[si], keys...)
				mu.Unlock()
			}
		}(si, st)
	}

	// Kill only once the default chain has demonstrably grown and the
	// writers are still running, so replay crosses at least one
	// ELASTIC_GROW barrier with live traffic on both sides.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := admin.ElasticStats()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		n := len(acked[0]) + len(acked[1])
		mu.Unlock()
		if st.Grows >= 1 && n >= 2000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chain never grew under load: %+v, %d acked\n%s", st, n, d1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	admin.Close()
	d1.Kill()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	d2 := d1.Restart(t)
	c2 := e2e.DialRetry(t, addr)
	defer c2.Close()

	// Every acked insert survives, in every filter.
	check := func(c *client.Client, when string) {
		t.Helper()
		contains := func(si int, keys [][]byte) ([]bool, error) {
			switch streams[si].name {
			case "ns":
				return c.Namespace("el-ns").ContainsBatch(keys)
			case "win":
				return c.Namespace("win-ns").ContainsBatch(keys)
			default:
				return c.ContainsBatch(keys)
			}
		}
		for si := range streams {
			keys := acked[si]
			for off := 0; off < len(keys); off += 256 {
				end := min(off+256, len(keys))
				flags, err := contains(si, keys[off:end])
				if err != nil {
					t.Fatalf("%s: stream %s: %v", when, streams[si].name, err)
				}
				for j, present := range flags {
					if !present {
						t.Fatalf("%s: stream %s: acked key %d lost",
							when, streams[si].name, off+j)
					}
				}
			}
		}
	}
	check(c2, "post-crash")
	st, err := c2.ElasticStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Grows < 1 || len(st.Gens) < 2 {
		t.Fatalf("chain shape lost in replay: %+v\n%s", st, d2)
	}

	// Byte-exact recovery: a second kill and replay reproduces the dump.
	dump1, err := c2.Dump()
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	d2.Kill()
	d2.Restart(t)
	c3 := e2e.DialRetry(t, addr)
	defer c3.Close()
	dump2, err := c3.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump1, dump2) {
		t.Fatalf("dump differs across replays (%d vs %d bytes)", len(dump1), len(dump2))
	}
	check(c3, "post-second-replay")
}
