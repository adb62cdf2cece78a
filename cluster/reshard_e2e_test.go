package cluster

// End-to-end resharding test against real mpcbfd binaries: a live
// 2-primary elastic cluster under concurrent writers grows to three
// primaries via the reshard coordinator. The acceptance bar: zero
// acked-insert loss across the membership change, reads correct
// throughout the dual-write window, post-cutover writes routed by the
// new ring, and every node's post-cutover DUMP byte-identical across a
// SIGKILL + recovery replay.

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/cluster/reshard"
	"repro/internal/e2e"
)

// reshardArgs makes a daemon elastic with a small seed geometry so the
// test's key volume spans generation growth, and keeps every snapshot
// blob far under the daemon's 1 MiB request frame bound for IMPORT.
var reshardArgs = []string{"-elastic", "-mem", "262144", "-n", "800"}

func reshardKey(writer, i int) []byte {
	return []byte(fmt.Sprintf("reshard-w%d-%05d", writer, i))
}

func TestReshardE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test builds and runs the daemon binary")
	}
	bin := e2e.BuildDaemon(t)

	addrs := make([]string, 3)
	dirs := make([]string, 3)
	daemons := make([]*e2e.Daemon, 3)
	start := func(i int) {
		daemons[i] = e2e.StartDaemon(t, e2e.DaemonConfig{Bin: bin, Dir: dirs[i], Extra: reshardArgs})
		addrs[i] = daemons[i].Addr
	}
	for i := 0; i < 2; i++ {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("p%d", i))
		start(i)
		e2e.DialRetry(t, addrs[i]).Close()
	}

	cc, err := NewClient(ClientConfig{
		Nodes:   []Node{{Primary: addrs[0]}, {Primary: addrs[1]}},
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	stopPoll := cc.StartRingPoll(100 * time.Millisecond)
	defer stopPoll()

	// Writers: every nil-error return is an acked insert the cluster
	// must answer forever, across the membership change. The acked set
	// is shared with a reader goroutine asserting correctness live.
	var mu sync.Mutex
	var acked [][]byte
	const writers, perWriter = 3, 2000
	var wg sync.WaitGroup
	writerErr := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := reshardKey(w, i)
				if err := cc.Insert(k); err != nil {
					writerErr <- fmt.Errorf("writer %d key %d: %w", w, i, err)
					return
				}
				mu.Lock()
				acked = append(acked, k)
				mu.Unlock()
			}
		}(w)
	}

	// Reader: continuously re-checks random already-acked keys; a false
	// negative at any point of the dual-write window fails the test.
	readerStop := make(chan struct{})
	readerErr := make(chan error, 1)
	var readerWg sync.WaitGroup
	readerWg.Add(1)
	go func() {
		defer readerWg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-readerStop:
				return
			default:
			}
			mu.Lock()
			var k []byte
			if len(acked) > 0 {
				k = acked[rng.Intn(len(acked))]
			}
			mu.Unlock()
			if k == nil {
				time.Sleep(time.Millisecond)
				continue
			}
			ok, err := cc.Contains(k)
			if err == nil && !ok {
				select {
				case readerErr <- fmt.Errorf("acked key %s read as absent", k):
				default:
				}
				return
			}
		}
	}()

	// Once the cluster is warm, bring up the third primary and reshard
	// while the writers keep going.
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= writers*perWriter/4 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	dirs[2] = filepath.Join(t.TempDir(), "p2")
	start(2)
	e2e.DialRetry(t, addrs[2]).Close()

	co := reshard.New(reshard.Config{
		Timeout: 15 * time.Second,
		// Must exceed the client's 100ms ring-poll interval so no writer
		// is still routing single-homed when the dumps are taken.
		PropagationDelay: 700 * time.Millisecond,
	})
	defer co.Close()
	rep, err := co.Add(addrs[:2], addrs[2])
	if err != nil {
		t.Fatalf("reshard add: %v", err)
	}
	if len(rep.Transfers) != 2 {
		t.Fatalf("expected 2 snapshot transfers, got %+v", rep.Transfers)
	}

	wg.Wait()
	close(writerErr)
	for err := range writerErr {
		t.Fatal(err)
	}

	// The polling client must converge on the stable epoch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := cc.Ring()
		if r.Epoch == rep.StableEpoch && !r.Joint {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never adopted stable ring: at epoch %d joint=%v, want %d", r.Epoch, r.Joint, rep.StableEpoch)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(cc.Ring().New) != 3 {
		t.Fatalf("stable ring has %d members, want 3", len(cc.Ring().New))
	}

	// Post-cutover writes route by the new membership.
	post := make([][]byte, 300)
	for i := range post {
		post[i] = []byte(fmt.Sprintf("reshard-post-%04d", i))
	}
	if err := cc.InsertBatch(post); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	acked = append(acked, post...)
	all := append([][]byte(nil), acked...)
	mu.Unlock()

	close(readerStop)
	readerWg.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}

	// Zero acked-insert loss over the new ring.
	checkAll := func(when string) {
		for from := 0; from < len(all); from += 1000 {
			to := min(from+1000, len(all))
			flags, err := cc.ContainsBatch(all[from:to])
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			for i, ok := range flags {
				if !ok {
					t.Fatalf("%s: lost acked key %s", when, all[from+i])
				}
			}
		}
	}
	checkAll("post-cutover")

	// The new node absorbed both donors' snapshots and serves keys.
	p3, err := client.Dial(addrs[2], client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	st, err := p3.ElasticStats()
	p3.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Imports < 2 {
		t.Fatalf("new node imported %d generations, want >= 2", st.Imports)
	}

	// Byte-identical second replay: each node's durable state must
	// reconstruct exactly after SIGKILL, imports and growth included.
	for i := range daemons {
		c := e2e.DialRetry(t, addrs[i])
		before, err := c.Dump()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		daemons[i].Kill()
		daemons[i] = daemons[i].Restart(t)
		c = e2e.DialRetry(t, addrs[i])
		after, err := c.Dump()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("node %d dump differs across replay (%d vs %d bytes)\n%s",
				i, len(before), len(after), daemons[i].Output())
		}
	}
	checkAll("post-replay")
}
