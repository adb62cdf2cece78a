package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/server/wire"
)

// nsInsertBatch applies keys to the named namespace through the store's
// durable path, waiting out the WAL ticket like the dispatch layer does.
func nsInsertBatch(t *testing.T, s *Store, name string, keys [][]byte) {
	t.Helper()
	_, ticket, err := s.mutateEnq(wire.OpInsertBatch, []byte(name), nil, keys, 0, nil, nil)
	if err != nil {
		t.Fatalf("ns %s insert batch: %v", name, err)
	}
	if err := s.wal.WaitDurable(ticket, nil); err != nil {
		t.Fatalf("ns %s wait durable: %v", name, err)
	}
}

// liveContains answers membership in the named namespace through the
// read path CONTAINS takes, recovering an evicted namespace first.
func liveContains(s *Store, name string, key []byte) (bool, error) {
	f, pin, err := s.live([]byte(name))
	ok := f != nil && f.Contains(key)
	pin.Unpin()
	return ok, err
}

func nsMustContain(t *testing.T, s *Store, name string, keys [][]byte) {
	t.Helper()
	flags, err := s.NsContainsBatch([]byte(name), keys)
	if err != nil {
		t.Fatalf("ns %s contains batch: %v", name, err)
	}
	for i, ok := range flags {
		if !ok {
			t.Fatalf("ns %s lost key %q", name, keys[i])
		}
	}
}

// TestNamespaceRoundTrip covers the client-visible namespace surface
// end to end on one daemon: admin ops, isolation between namespaces and
// the default filter, custom geometry, idempotent create/drop, and
// per-namespace DUMP.
func TestNamespaceRoundTrip(t *testing.T) {
	_, c := startTestServer(t, testStoreOptions(t.TempDir()), Config{})

	if err := c.CreateNamespace("tenant-a", wire.NsConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateNamespace("tenant-b", wire.NsConfig{MemoryBits: 1 << 18, ExpectedItems: 1000, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-create with the same effective config.
	if err := c.CreateNamespace("tenant-a", wire.NsConfig{}); err != nil {
		t.Fatalf("idempotent create: %v", err)
	}
	// Conflicting re-create must fail with an operation-level error.
	var se *client.ServerError
	if err := c.CreateNamespace("tenant-a", wire.NsConfig{MemoryBits: 1 << 10}); !errors.As(err, &se) {
		t.Fatalf("conflicting create = %v, want *ServerError", err)
	}

	a, b := c.Namespace("tenant-a"), c.Namespace("tenant-b")
	key := []byte("shared-key")
	if err := a.Insert(key); err != nil {
		t.Fatal(err)
	}
	if ok, err := a.Contains(key); err != nil || !ok {
		t.Fatalf("tenant-a contains = %v, %v; want true", ok, err)
	}
	// The same key must not leak into tenant-b or the default filter.
	if ok, err := b.Contains(key); err != nil || ok {
		t.Fatalf("tenant-b contains = %v, %v; want false", ok, err)
	}
	if ok, err := c.Contains(key); err != nil || ok {
		t.Fatalf("default contains = %v, %v; want false", ok, err)
	}

	keys := storeKeys("ns-rt", 200)
	if err := b.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Len(); err != nil || n != 200 {
		t.Fatalf("tenant-b len = %d, %v; want 200", n, err)
	}
	if n, err := a.Len(); err != nil || n != 1 {
		t.Fatalf("tenant-a len = %d, %v; want 1", n, err)
	}
	if est, err := a.EstimateCount(key); err != nil || est < 1 {
		t.Fatalf("tenant-a estimate = %d, %v; want >= 1", est, err)
	}
	flags, err := b.DeleteBatch(keys[:10])
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range flags {
		if !ok {
			t.Fatalf("tenant-b delete flag %d false", i)
		}
	}

	names, err := c.ListNamespaces()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"tenant-a", "tenant-b"}; len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Fatalf("ListNamespaces = %v, want %v", names, want)
	}
	st, err := c.NamespaceStats("tenant-b")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Resident || st.Windowed || st.Items != 190 || st.MemoryBits != 1<<18 {
		t.Fatalf("tenant-b stats = %+v", st)
	}

	dump, err := b.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) == 0 {
		t.Fatal("empty namespace dump")
	}

	if err := c.DropNamespace("tenant-b"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropNamespace("tenant-b"); err != nil {
		t.Fatalf("idempotent drop: %v", err)
	}
	if ok, err := b.Contains(keys[50]); err != nil || ok {
		t.Fatalf("dropped namespace contains = %v, %v; want false", ok, err)
	}
	if names, _ = c.ListNamespaces(); len(names) != 1 || names[0] != "tenant-a" {
		t.Fatalf("ListNamespaces after drop = %v", names)
	}

	// Bad names fail the one request, not the connection.
	if err := c.CreateNamespace("bad name!", wire.NsConfig{}); !errors.As(err, &se) {
		t.Fatalf("invalid name create = %v, want *ServerError", err)
	}
	if ok, err := a.Contains(key); err != nil || !ok {
		t.Fatalf("connection unusable after invalid-name error: %v, %v", ok, err)
	}
}

// TestNamespaceLazyCreateAndWindowed covers lazy creation on first
// mutation, windowed namespaces next to a non-windowed default, and the
// guard that a failed TTL insert does not create a namespace as a side
// effect.
func TestNamespaceLazyCreateAndWindowed(t *testing.T) {
	_, c := startTestServer(t, testStoreOptions(t.TempDir()), Config{})

	// First mutation lazily creates the namespace with default config.
	lazy := c.Namespace("lazy")
	if err := lazy.Insert([]byte("k")); err != nil {
		t.Fatal(err)
	}
	names, err := c.ListNamespaces()
	if err != nil || len(names) != 1 || names[0] != "lazy" {
		t.Fatalf("ListNamespaces = %v, %v; want [lazy]", names, err)
	}

	// A windowed namespace on a non-windowed daemon.
	if err := c.CreateNamespace("sliding", wire.NsConfig{
		WindowNanos: uint64(time.Hour),
		Generations: 4,
	}); err != nil {
		t.Fatal(err)
	}
	w := c.Namespace("sliding")
	if err := w.InsertTTL([]byte("ttl-key"), 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	ws, err := w.WindowStats()
	if err != nil {
		t.Fatal(err)
	}
	if ws.Generations != 4 || ws.SpanNanos != uint64(time.Hour) {
		t.Fatalf("sliding window stats = %+v", ws)
	}
	st, err := c.NamespaceStats("sliding")
	if err != nil || !st.Windowed {
		t.Fatalf("sliding ns stats = %+v, %v; want windowed", st, err)
	}

	// TTL insert against an unknown namespace under non-windowed defaults
	// must fail without creating the namespace.
	var se *client.ServerError
	if err := c.Namespace("phantom").InsertTTL([]byte("k"), time.Minute); !errors.As(err, &se) {
		t.Fatalf("ttl insert to phantom ns = %v, want *ServerError", err)
	}
	names, err = c.ListNamespaces()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "phantom" {
			t.Fatal("failed TTL insert created a namespace side-effect")
		}
	}
}

// TestNamespaceEvictRecoverCrash is the satellite edge case: a
// namespace is evicted under quota pressure (snapshot-on-evict),
// recovered on touch, mutated further, and then the process dies via
// WAL close with NO store snapshot ever taken. Recovery must replay the
// full WAL tail — including records that straddle the evict/recover
// boundary — and every acknowledged key must survive in every
// namespace.
func TestNamespaceEvictRecoverCrash(t *testing.T) {
	dir := t.TempDir()
	opts := testStoreOptions(dir)
	// Default per-namespace geometry is 1<<21 bits = 256 KiB; a 300 KiB
	// quota holds exactly one resident namespace at a time.
	opts.NsQuota = 300 << 10
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}

	aKeys, bKeys := storeKeys("evict-a", 400), storeKeys("evict-b", 400)
	nsInsertBatch(t, s, "alpha", aKeys[:200])
	// Creating beta under the one-namespace quota evicts alpha to disk.
	nsInsertBatch(t, s, "beta", bKeys)
	if files, _ := scanDir(dir); len(files.evicted) == 0 {
		t.Fatal("quota eviction wrote no ns snapshot file")
	}
	st, err := s.NsStats([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Resident || st.Evictions == 0 {
		t.Fatalf("alpha after quota pressure = %+v, want evicted", st)
	}

	// Touch alpha again: recover-on-touch, then more acked mutations that
	// land in the WAL *after* the evict file was written.
	nsInsertBatch(t, s, "alpha", aKeys[200:])
	nsMustContain(t, s, "alpha", aKeys)

	// Crash without a snapshot: recovery sees only segment files plus
	// whatever evict files quota pressure left behind.
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	nsMustContain(t, r, "alpha", aKeys)
	nsMustContain(t, r, "beta", bKeys)
	if n := r.nsLen([]byte("alpha")); n != len(aKeys) {
		t.Fatalf("alpha len after crash = %d, want %d", n, len(aKeys))
	}
	_, totals := r.Namespaces().Snapshot()
	if totals.Count != 2 {
		t.Fatalf("namespace count after crash = %d, want 2", totals.Count)
	}
}

// TestNamespaceEvictionIdle covers the time-based eviction path plus
// transparent recovery on a read: an idle namespace is evicted by the
// cutoff sweep, reads still answer correctly (recovering it), and the
// eviction/recovery counters advance.
func TestNamespaceEvictionIdle(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	keys := storeKeys("idle", 100)
	nsInsertBatch(t, s, "sleeper", keys)

	// Evict directly through the registry (the idle loop's operation)
	// rather than waiting out a timer.
	s.mu.Lock()
	n, err := s.reg.EvictIdle(s.reg.Now() + 1)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("EvictIdle evicted %d namespaces, want 1", n)
	}
	st, err := s.NsStats([]byte("sleeper"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Resident {
		t.Fatal("sleeper still resident after idle eviction")
	}

	// A read transparently recovers the namespace.
	nsMustContain(t, s, "sleeper", keys)
	st, err = s.NsStats([]byte("sleeper"))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Resident || st.Recoveries == 0 || st.Evictions == 0 {
		t.Fatalf("sleeper after recover-on-read = %+v", st)
	}
	if st.Items != 100 {
		t.Fatalf("sleeper items after recover = %d, want 100", st.Items)
	}
}

// TestNamespaceDropRacesPipeline is the satellite race: DROP_NS
// arriving (from a second connection) in the middle of a pipelined
// mutation stream against the same namespace. Every pipelined request
// must complete with a definitive per-request result, the connection
// must stay in sync, and the store must stay consistent — mutations
// landing after the drop lazily recreate the namespace.
func TestNamespaceDropRacesPipeline(t *testing.T) {
	srv, c := startTestServer(t, testStoreOptions(t.TempDir()), Config{})
	c2, err := client.Dial(srv.Addr().String(), client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	const rounds, perRound = 20, 25
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c2.DropNamespace("contested"); err != nil {
				t.Errorf("concurrent drop: %v", err)
				return
			}
		}
	}()

	p := c.Pipeline()
	v := p.Namespace("contested")
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			v.Insert([]byte(fmt.Sprintf("race-%d-%d", r, i)))
		}
		v.Len()
		results, err := p.Flush()
		if err != nil {
			t.Fatalf("round %d flush: %v", r, err)
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("round %d result %d: %v", r, i, res.Err)
			}
		}
	}
	close(stop)
	wg.Wait()

	// The connection must still be usable and the namespace coherent:
	// whatever survived the last drop answers reads without error.
	if _, err := c.Namespace("contested").Len(); err != nil {
		t.Fatalf("post-race len: %v", err)
	}
	if _, err := c.Namespace("contested").Contains([]byte("race-0-0")); err != nil {
		t.Fatalf("post-race contains: %v", err)
	}
}

// TestNamespaceDropInPipelineOrder pins in-stream ordering: a drop
// queued between two inserts on ONE pipeline takes effect exactly
// between them.
func TestNamespaceDropInPipelineOrder(t *testing.T) {
	_, c := startTestServer(t, testStoreOptions(t.TempDir()), Config{})
	p := c.Pipeline()
	v := p.Namespace("ordered")
	v.Insert([]byte("before-drop"))
	p.DropNamespace("ordered")
	v.Insert([]byte("after-drop"))
	results, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("result %d: %v", i, res.Err)
		}
	}
	sv := c.Namespace("ordered")
	ok, err := sv.Contains([]byte("before-drop"))
	if err != nil || ok {
		t.Fatalf("pre-drop key visible after drop: %v, %v", ok, err)
	}
	ok, err = sv.Contains([]byte("after-drop"))
	if err != nil || !ok {
		t.Fatalf("post-drop key missing: %v, %v", ok, err)
	}
	if n, err := sv.Len(); err != nil || n != 1 {
		t.Fatalf("len = %d, %v; want 1", n, err)
	}
}

// TestNamespaceSnapshotContainer covers the container snapshot format:
// with namespaces present a snapshot embeds every namespace (resident
// or evicted), restores byte-exactly, and the per-namespace DUMP
// matches before and after.
func TestNamespaceSnapshotContainer(t *testing.T) {
	dir := t.TempDir()
	opts := testStoreOptions(dir)
	opts.NsQuota = 300 << 10 // one resident namespace: "cold" is evicted
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}

	defKeys := storeKeys("def", 100)
	if err := s.InsertBatch(defKeys); err != nil {
		t.Fatal(err)
	}
	nsInsertBatch(t, s, "cold", storeKeys("cold", 150))
	nsInsertBatch(t, s, "hot", storeKeys("hot", 150))

	dumpBefore, err := s.marshal([]byte("hot"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Len(); n != 100 {
		t.Fatalf("default len after restore = %d, want 100", n)
	}
	nsMustContain(t, r, "cold", storeKeys("cold", 150))
	nsMustContain(t, r, "hot", storeKeys("hot", 150))
	dumpAfter, err := r.marshal([]byte("hot"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumpBefore, dumpAfter) {
		t.Fatal("per-namespace dump differs across snapshot restore")
	}
}

// TestNamespaceWireAuditNames asserts the server's namespace op names
// surface in the metrics op table (anti-drift with wire.OpName).
func TestNamespaceWireAuditNames(t *testing.T) {
	for op, want := range map[byte]string{wire.OpNsCreate: "ns_create", wire.OpNsDrop: "ns_drop",
		wire.OpNsList: "ns_list", wire.OpNsStats: "ns_stats", wire.OpNamespaced: "namespaced"} {
		if got := wire.OpName(op); got != want {
			t.Errorf("wire.OpName(0x%02x) = %q, want %q", op, got, want)
		}
	}
}

// TestNamespaceDefaultAliasCompat pins the compat contract: a 0-length
// namespace on the admin ops addresses the default filter, and old
// clients (no envelope at all) share state with an explicit empty-name
// envelope.
func TestNamespaceDefaultAliasCompat(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Insert([]byte("plain-key")); err != nil {
		t.Fatal(err)
	}
	st, err := s.NsStats(nil)
	if err != nil || !st.Resident || st.Items != 1 {
		t.Fatalf("default ns stats = %+v, want resident with 1 item", st)
	}
	if names := s.NsList(); len(names) != 0 {
		t.Fatalf("NsList with no named namespaces = %v, want empty", names)
	}
}

// TestEvictFileMatchesMarshalEnvelope pins the streamed evict write to
// the file evictions wrote when they marshalled the state first: the
// [magic][crc32(data)][data] envelope around the namespace's
// MarshalBinary encoding, for a plain, a windowed and an elastic
// namespace.
func TestEvictFileMatchesMarshalEnvelope(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for name, cfg := range map[string]wire.NsConfig{
		"env-plain": {MemoryBits: 1 << 18, ExpectedItems: 4000},
		"env-win":   {MemoryBits: 1 << 17, ExpectedItems: 2000, WindowNanos: uint64(time.Hour), Generations: 3},
		"env-chain": {MemoryBits: 1 << 14, ExpectedItems: 200, Flags: wire.NsFlagElastic},
	} {
		if _, err := s.nsCreateEnq([]byte(name), cfg, nil); err != nil {
			t.Fatal(err)
		}
		nsInsertBatch(t, s, name, storeKeys(name, 1000)) // grows the chain
		e := s.reg.Lookup([]byte(name))
		if el := e.Elastic(); el != nil && el.Generations() < 2 {
			t.Fatalf("%s: chain did not grow", name)
		}
		data, err := e.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		want := binary.LittleEndian.AppendUint32(nil, snapMagic)
		want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(data))
		want = append(want, data...)
		s.mu.Lock()
		err = s.reg.Evict(e)
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(nsSnapPath(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: evict file (%d bytes) differs from the marshalled envelope (%d bytes)", name, len(got), len(want))
		}
	}
}
