package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	mpcbf "repro"
	"repro/client"
	"repro/server"
	"repro/server/wire"
)

// discardLog silences node logging in tests. (slog.DiscardHandler is
// go1.24; this repo targets go1.22.)
func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// testFilter is the shared geometry: replicas must be configured
// identically to the primary so that record replay (the non-bootstrap
// path) lands on an identical layout.
func testFilter() mpcbf.Options {
	return mpcbf.Options{MemoryBits: 1 << 19, ExpectedItems: 5000, Seed: 42}
}

func primaryStoreOpts(t *testing.T) server.StoreOptions {
	return server.StoreOptions{
		Dir:    t.TempDir(),
		Filter: testFilter(),
		Shards: 4,
		Sync:   server.SyncAlways,
		Log:    discardLog(),
	}
}

// startServer serves store on a loopback port and tears everything down
// with the test.
func startServer(t *testing.T, store *server.Store, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(store, cfg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func startPrimary(t *testing.T) (*server.Store, string) {
	t.Helper()
	store, err := server.OpenStore(primaryStoreOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	_, addr := startServer(t, store, server.Config{
		HeartbeatEvery: 50 * time.Millisecond,
		Log:            discardLog(),
	})
	return store, addr
}

// startReplica opens a replica-mode store mirroring primaryAddr, serves
// it read-only, and runs the sync loop until the test ends.
func startReplica(t *testing.T, primaryAddr string) (*server.Store, *Replica, *server.Server, string) {
	t.Helper()
	opts := primaryStoreOpts(t)
	opts.Replica = true
	store, err := server.OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })

	rep, err := NewReplica(ReplicaConfig{
		PrimaryAddr: primaryAddr,
		Store:       store,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
		Log:         discardLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() { defer close(runDone); rep.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-runDone })

	srv, addr := startServer(t, store, server.Config{
		ReadOnly:    true,
		PrimaryAddr: primaryAddr,
		Log:         discardLog(),
	})
	return store, rep, srv, addr
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// caughtUp reports whether every replica's WAL position equals the
// primary's. A replica applies a frame before it logs it, so an equal
// position means every write the primary logged is applied — where an
// equal Len can also pass on the way, as when 500 inserts and then 100
// deletes pass through 400.
func caughtUp(primary *server.Store, replicas ...*server.Store) bool {
	seq, off := primary.ReplicationPos()
	for _, r := range replicas {
		if rseq, roff := r.ReplicationPos(); rseq != seq || roff != off {
			return false
		}
	}
	return true
}

func keys(prefix string, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%s-%04d", prefix, i))
	}
	return out
}

func TestReplicaConvergesToIdenticalFilter(t *testing.T) {
	pstore, paddr := startPrimary(t)
	r1store, _, _, _ := startReplica(t, paddr)
	r2store, _, _, _ := startReplica(t, paddr)

	c, err := client.Dial(paddr, client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ks := keys("conv", 500)
	if err := c.InsertBatch(ks[:400]); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks[400:] {
		if err := c.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.DeleteBatch(ks[:100]); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "replicas to converge", func() bool { return caughtUp(pstore, r1store, r2store) })

	pdump, err := pstore.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range []*server.Store{r1store, r2store} {
		rdump, err := rs.MarshalFilter()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pdump, rdump) {
			t.Fatalf("replica %d filter differs from primary (%d vs %d bytes)", i+1, len(rdump), len(pdump))
		}
	}
}

func TestReplicaServesReadsAndRejectsWrites(t *testing.T) {
	pstore, paddr := startPrimary(t)
	rstore, rep, rsrv, raddr := startReplica(t, paddr)

	pc, err := client.Dial(paddr, client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if err := pc.InsertBatch(keys("ro", 100)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica to catch up", func() bool { return caughtUp(pstore, rstore) })

	rc, err := client.Dial(raddr, client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	if ok, err := rc.Contains([]byte("ro-0007")); err != nil || !ok {
		t.Fatalf("replica Contains = %v, %v", ok, err)
	}
	if n, err := rc.Len(); err != nil || n != pstore.Len() {
		t.Fatalf("replica Len = %d, %v (want %d)", n, err, pstore.Len())
	}

	err = rc.Insert([]byte("rejected"))
	var ro *client.ReadOnlyError
	if !errors.As(err, &ro) {
		t.Fatalf("replica Insert: err = %v, want *ReadOnlyError", err)
	}
	if ro.Primary != paddr {
		t.Fatalf("redirect = %q, want %q", ro.Primary, paddr)
	}

	// Replica-side observability: the stream is live with zero lag.
	waitFor(t, "lag to drain", func() bool {
		st := rep.Stats()
		return st.Connected && st.LagBytes == 0 && st.Frames > 0
	})
	var prom strings.Builder
	rep.WriteProm(&prom)
	if !strings.Contains(prom.String(), "mpcbfd_replica_connected 1") {
		t.Fatalf("WriteProm missing live gauge:\n%s", prom.String())
	}
	_ = rsrv
}

func TestReplicaBootstrapsWhenHistoryIsPruned(t *testing.T) {
	pstore, paddr := startPrimary(t)

	pc, err := client.Dial(paddr, client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if err := pc.InsertBatch(keys("boot", 300)); err != nil {
		t.Fatal(err)
	}
	// Snapshotting rotates the WAL and prunes segment 1 — a fresh
	// replica's resume position — so the subscription must fall back to
	// a snapshot bootstrap.
	if err := pstore.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := pc.InsertBatch(keys("boot-after", 50)); err != nil {
		t.Fatal(err)
	}

	rstore, rep, _, _ := startReplica(t, paddr)
	waitFor(t, "bootstrap and catch-up", func() bool {
		return rep.Stats().Bootstraps >= 1 && caughtUp(pstore, rstore)
	})

	pdump, err := pstore.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	rdump, err := rstore.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pdump, rdump) {
		t.Fatal("bootstrapped replica filter differs from primary")
	}

	// And the mirror keeps following after the bootstrap.
	if err := pc.Insert([]byte("post-bootstrap")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-bootstrap record", func() bool { return caughtUp(pstore, rstore) })
}

func TestClusterClientRoutingAndBatches(t *testing.T) {
	stores := make([]*server.Store, 3)
	nodes := make([]Node, 3)
	for i := range nodes {
		st, addr := startPrimary(t)
		stores[i] = st
		nodes[i] = Node{Primary: addr}
	}
	cc, err := NewClient(ClientConfig{Nodes: nodes, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	ks := keys("route", 300)
	if err := cc.InsertBatch(ks); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, st := range stores {
		n := st.Len()
		if n == 0 {
			t.Fatalf("node %d received no keys: routing is degenerate", i)
		}
		total += n
	}
	if total != len(ks) {
		t.Fatalf("cluster holds %d keys, want %d", total, len(ks))
	}
	if n, err := cc.Len(); err != nil || n != len(ks) {
		t.Fatalf("Len = %d, %v", n, err)
	}

	flags, err := cc.ContainsBatch(ks)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range flags {
		if !ok {
			t.Fatalf("key %d missing after InsertBatch", i)
		}
	}
	if ok, err := cc.Contains(ks[42]); err != nil || !ok {
		t.Fatalf("Contains = %v, %v", ok, err)
	}
	if v, err := cc.EstimateCount(ks[42]); err != nil || v < 1 {
		t.Fatalf("EstimateCount = %d, %v", v, err)
	}

	// Routing is a pure function of (key, primary set): a client built
	// from the same nodes listed in reverse routes every key to the same
	// primary.
	rev := []Node{nodes[2], nodes[1], nodes[0]}
	cc2, err := NewClient(ClientConfig{Nodes: rev, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cc2.Close()
	for _, k := range ks[:50] {
		a := nodes[routeIn(cc.nodes, 0, k)].Primary
		b := rev[routeIn(cc2.nodes, 0, k)].Primary
		if a != b {
			t.Fatalf("key %q routed to %s and %s under reordered topology", k, a, b)
		}
	}

	removed, err := cc.DeleteBatch(ks)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range removed {
		if !ok {
			t.Fatalf("key %d not removed", i)
		}
	}
	if n, err := cc.Len(); err != nil || n != 0 {
		t.Fatalf("Len after delete = %d, %v", n, err)
	}
}

func TestClusterReadsFromReplicaAndFailsOver(t *testing.T) {
	pstore, paddr := startPrimary(t)
	rstore, _, rsrv, raddr := startReplica(t, paddr)

	// A second "replica" address that refuses connections: reads must
	// skip it.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	cc, err := NewClient(ClientConfig{
		Nodes:   []Node{{Primary: paddr, Replicas: []string{deadAddr, raddr}}},
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	ks := keys("fo", 50)
	if err := cc.InsertBatch(ks); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica to catch up", func() bool { return caughtUp(pstore, rstore) })

	for i := 0; i < 10; i++ {
		if ok, err := cc.Contains(ks[i]); err != nil || !ok {
			t.Fatalf("Contains(%d) = %v, %v", i, ok, err)
		}
	}
	flags, err := cc.ContainsBatch(ks)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range flags {
		if !ok {
			t.Fatalf("ContainsBatch missing key %d", i)
		}
	}
	// The live replica actually served reads (round-robin lands on it
	// after skipping the dead address).
	if rsrv.Metrics().Ops(wire.OpContains)+rsrv.Metrics().Ops(wire.OpContainsBatch) == 0 {
		t.Fatal("no reads reached the replica")
	}

	// With the replica gone too, reads fail over to the primary.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rsrv.Shutdown(ctx)
	waitFor(t, "failover to primary", func() bool {
		ok, err := cc.Contains(ks[0])
		return err == nil && ok
	})
}
