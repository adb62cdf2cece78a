package server

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	mpcbf "repro"
	"repro/internal/snapio"
	"repro/server/wire"
)

// Allocation-regression guards for the steady-state request path. The
// zero-alloc codec is a measured property, not a structural one — a
// stray closure or slice growth reintroduces per-request garbage without
// failing any functional test — so these fail the build the moment the
// hot paths allocate again. Skipped under -race: its instrumentation
// allocates and would make the counts meaningless.

// TestDispatchZeroAllocs pins 0 allocs/op for single-key INSERT, DELETE
// (both through a durable commit wait at SyncAlways), CONTAINS, a 72-key
// CONTAINS_BATCH on the default filter, on plain, windowed and elastic
// namespaces, and on an unknown namespace, single-key CONTAINS and
// ESTIMATE on the three kinds of namespace, which hold its read pin, and
// INSERT_BATCH plus DELETE_BATCH of 4 and of 256 keys, each through its
// durable wait, on the default filter and the three kinds of namespace,
// end-to-end through the server dispatch layer.
func TestDispatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	st, err := OpenStore(testStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st, Config{}, nil)

	key := []byte("alloc-guard-key")
	resp := make([]byte, 0, 256)

	mutate := func() {
		var tkt uint64
		resp, tkt, _ = srv.dispatch(wire.Request{Op: wire.OpInsert, Key: key}, resp[:0], nil, nil)
		if err := st.waitDurable(tkt, nil); err != nil {
			t.Fatal(err)
		}
		resp, tkt, _ = srv.dispatch(wire.Request{Op: wire.OpDelete, Key: key}, resp[:0], nil, nil)
		if err := st.waitDurable(tkt, nil); err != nil {
			t.Fatal(err)
		}
	}
	mutate() // warm up: size the WAL pending buffer and response scratch
	if avg := testing.AllocsPerRun(50, mutate); avg != 0 {
		t.Errorf("insert+delete dispatch: %.1f allocs/op, want 0", avg)
	}

	read := func() {
		resp, _, _ = srv.dispatch(wire.Request{Op: wire.OpContains, Key: key}, resp[:0], nil, nil)
	}
	read()
	if avg := testing.AllocsPerRun(100, read); avg != 0 {
		t.Errorf("contains dispatch: %.1f allocs/op, want 0", avg)
	}

	// Batch reads answer on the calling goroutine into the connection's
	// scratch: no result slice, group slices or goroutines per request,
	// on the default filter and on plain, windowed and elastic namespaces
	// alike. The absent keys carry through every generation of a chain.
	keys := storeKeys("alloc-batch", 64)
	for name, cfg := range map[string]wire.NsConfig{
		"alloc-win":   {MemoryBits: 1 << 15, ExpectedItems: 500, WindowNanos: uint64(time.Hour), Generations: 2},
		"alloc-chain": {MemoryBits: 1 << 15, ExpectedItems: 500, Flags: wire.NsFlagElastic},
	} {
		if _, err := st.nsCreateEnq([]byte(name), cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	names := [][]byte{nil, []byte("alloc-ns"), []byte("alloc-win"), []byte("alloc-chain"), []byte("alloc-unknown")}
	for _, ns := range names[1:4] {
		nsInsertBatch(t, st, string(ns), keys)
	}
	probe := append(keys[:len(keys):len(keys)], storeKeys("alloc-absent", 8)...)
	var batch mpcbf.BatchScratch
	for _, ns := range names {
		req := wire.Request{Op: wire.OpContainsBatch, NS: ns, Keys: probe}
		readBatch := func() {
			resp, _, _ = srv.dispatch(req, resp[:0], nil, &batch)
		}
		readBatch() // warm up: size the scratch and the response buffer
		if avg := testing.AllocsPerRun(100, readBatch); avg != 0 {
			t.Errorf("contains_batch dispatch (ns %q): %.1f allocs/op, want 0", ns, avg)
		}
		flags, err := wire.DecodeBools(resp[1:])
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range flags[:len(keys)] {
			if unknown := string(ns) == "alloc-unknown"; ok == unknown && ns != nil {
				t.Fatalf("ns %q batch read answered %v for %q", ns, ok, keys[i])
			}
		}
	}

	// A single-key read of a namespace takes and releases the entry's read
	// pin around the probe, which allocates nothing either.
	for _, ns := range names[1:4] {
		for _, op := range []byte{wire.OpContains, wire.OpEstimate} {
			req := wire.Request{Op: op, NS: ns, Key: keys[0]}
			readOne := func() {
				resp, _, _ = srv.dispatch(req, resp[:0], nil, nil)
			}
			readOne()
			if avg := testing.AllocsPerRun(100, readOne); avg != 0 {
				t.Errorf("%s dispatch (ns %q): %.1f allocs/op, want 0", wire.OpName(op), ns, avg)
			}
			present, err := wire.DecodeBool(resp[1:])
			if op == wire.OpEstimate {
				var n uint64
				n, err = wire.DecodeU64(resp[1:])
				present = n > 0
			}
			if resp[0] != wire.StatusOK || err != nil || !present {
				t.Fatalf("ns %q %s answered %x for a present key", ns, wire.OpName(op), resp)
			}
		}
	}

	// Batch mutations plan in the same scratch and log into the WAL's
	// pending buffer: a batch inserted and then deleted again, each
	// acknowledged only after its commit, allocates nothing.
	for _, n := range []int{4, 256} {
		mkeys := storeKeys(fmt.Sprintf("alloc-mut%d", n), n)
		for _, ns := range names[:4] {
			churn := func() {
				for _, op := range []byte{wire.OpInsertBatch, wire.OpDeleteBatch} {
					var tkt uint64
					resp, tkt, _ = srv.dispatch(wire.Request{Op: op, NS: ns, Keys: mkeys}, resp[:0], nil, &batch)
					if err := st.waitDurable(tkt, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			churn() // warm up: size the scratch, the WAL buffer and the response
			if avg := testing.AllocsPerRun(10, churn); avg != 0 {
				t.Errorf("insert_batch+delete_batch dispatch (%d keys, ns %q): %.1f allocs/op, want 0", n, ns, avg)
			}
			flags, err := wire.DecodeBools(resp[1:])
			if err != nil || resp[0] != wire.StatusOK || len(flags) != n {
				t.Fatalf("ns %q delete_batch answered %x: %v", ns, resp, err)
			}
			for i, ok := range flags {
				if !ok {
					t.Fatalf("ns %q delete_batch did not remove %q", ns, mkeys[i])
				}
			}
		}
	}
}

// TestBeginFrameZeroAllocs pins the reader's per-frame trace decision:
// with sampling off, a plain request and a zero-length (untraced) TRACE
// envelope get no trace and allocate nothing, while a TRACE envelope
// carrying ids gets a full trace before it is decoded.
func TestBeginFrameZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	tc := newTracer(0, 0, nil)
	inner := wire.AppendKeyRequest(nil, wire.OpContains, []byte("k"))
	for name, payload := range map[string][]byte{
		"plain":             inner,
		"untraced envelope": append([]byte{wire.OpTrace, 0}, inner...),
	} {
		var tr *reqTrace
		if avg := testing.AllocsPerRun(100, func() { _, tr = tc.beginFrame(payload) }); avg != 0 || tr != nil {
			t.Errorf("%s: %.1f allocs/op, traced %v; want 0 and untraced", name, avg, tr != nil)
		}
	}
	traced := wire.AppendRequest(nil, &wire.Request{Op: wire.OpContains, Key: []byte("k"),
		TraceID: [wire.TraceIDLen]byte{1}, ParentSpan: 7, Traced: true})
	if _, tr := tc.beginFrame(traced); tr == nil {
		t.Error("traced envelope: no trace before decoding")
	}
}

// TestTraceFinishAllocs pins a sampled request's trace to one
// allocation, its reqTrace: finish names the op from the opcode table
// and copies the entry into a preallocated ring.
func TestTraceFinishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	tc := newTracer(1, 0, nil)
	payload := wire.AppendKeyRequest(nil, wire.OpInsert, []byte("k"))
	avg := testing.AllocsPerRun(100, func() {
		id, tr := tc.beginFrame(payload)
		tc.finish(id, tr, wire.OpInsert, 1, 1, time.Microsecond, false)
	})
	if avg > 1 {
		t.Errorf("sampled beginFrame+finish: %.1f allocs/op, want at most 1", avg)
	}
	if rep := tc.Report(); len(rep.Recent) == 0 || rep.Recent[0].Op != "insert" {
		t.Errorf("recent ring %+v, want an insert entry", rep.Recent)
	}
}

// TestWireCodecZeroAllocs pins 0 allocs/op for the request/response
// codec itself: encoding single-key and batch requests, and a traced,
// namespaced batch through AppendRequest, into reused buffers, decoding
// them with a reused key-scratch, and decoding bool vectors into a
// reused result slice.
func TestWireCodecZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	key := []byte("alloc-guard-key")
	keys := storeKeys("alloc-batch", 64)
	dst := make([]byte, 0, 4096)
	var keyScratch [][]byte

	encodeSingle := func() {
		dst = wire.AppendKeyRequest(dst[:0], wire.OpInsert, key)
	}
	encodeSingle()
	if avg := testing.AllocsPerRun(100, encodeSingle); avg != 0 {
		t.Errorf("encode single-key request: %.1f allocs/op, want 0", avg)
	}

	encodeBatch := func() {
		dst = wire.AppendBatchRequest(dst[:0], wire.OpInsertBatch, keys)
	}
	encodeBatch()
	if avg := testing.AllocsPerRun(100, encodeBatch); avg != 0 {
		t.Errorf("encode batch request: %.1f allocs/op, want 0", avg)
	}

	dressed := wire.Request{Op: wire.OpInsertBatch, Keys: keys, NS: []byte("tenant-a"),
		TraceID: [wire.TraceIDLen]byte{1, 2, 3}, ParentSpan: 7, Traced: true}
	encodeDressed := func() {
		dst = wire.AppendRequest(dst[:0], &dressed)
	}
	encodeDressed()
	if avg := testing.AllocsPerRun(100, encodeDressed); avg != 0 {
		t.Errorf("encode traced namespaced batch request: %.1f allocs/op, want 0", avg)
	}

	payload := wire.AppendBatchRequest(nil, wire.OpInsertBatch, keys)
	decodeBatch := func() {
		req, err := wire.DecodeRequestInto(payload, keyScratch)
		if err != nil {
			t.Fatal(err)
		}
		if cap(req.Keys) > cap(keyScratch) {
			keyScratch = req.Keys
		}
	}
	decodeBatch() // warm up keyScratch to batch size
	if avg := testing.AllocsPerRun(100, decodeBatch); avg != 0 {
		t.Errorf("decode batch request: %.1f allocs/op, want 0", avg)
	}

	flags := make([]bool, len(keys))
	for i := range flags {
		flags[i] = i%3 == 0
	}
	body := wire.AppendBools(nil, flags) // status-less bools body
	boolScratch := make([]bool, 0, len(keys))
	decodeBools := func() {
		out, err := wire.DecodeBoolsInto(body, boolScratch)
		if err != nil {
			t.Fatal(err)
		}
		boolScratch = out[:0]
	}
	decodeBools()
	if avg := testing.AllocsPerRun(100, decodeBools); avg != 0 {
		t.Errorf("decode bools: %.1f allocs/op, want 0", avg)
	}
}

// TestScrapeAllocsIndependentOfFilterSize pins a /metrics scrape's
// allocations to the server's shape, not its filter's size: Snapshot and
// the Prometheus rendering allocate as often on a 2^24-bit default
// filter as on a 2^20-bit one, in plain, windowed and elastic mode,
// because the fill stats read the words in registers.
func TestScrapeAllocsIndependentOfFilterSize(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	modes := []struct {
		name string
		set  func(*StoreOptions)
	}{
		{"plain", func(*StoreOptions) {}},
		{"window", func(o *StoreOptions) { o.Window, o.Generations = time.Hour, 3 }},
		{"elastic", func(o *StoreOptions) { o.Elastic = true }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			var allocs [2][2]float64 // [size][Snapshot, WriteProm]
			for i, bits := range []int{1 << 20, 1 << 24} {
				opts := testStoreOptions(t.TempDir())
				opts.Filter = mpcbf.Options{MemoryBits: bits, ExpectedItems: bits / 64, Seed: 42}
				mode.set(&opts)
				st, err := OpenStore(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.InsertBatch(storeKeys("scrape", 2000)); err != nil {
					t.Fatal(err)
				}
				srv := New(st, Config{}, nil)
				// A collection empties the pools fmt draws its printers
				// from; settle the heap first so none runs mid-count.
				runtime.GC()
				allocs[i][0] = testing.AllocsPerRun(5, func() { srv.Snapshot() })
				allocs[i][1] = testing.AllocsPerRun(5, func() { srv.WriteProm(io.Discard) })
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if allocs[0] != allocs[1] {
				t.Errorf("Snapshot, WriteProm allocs: %v on 2^20 bits, %v on 2^24 bits; want equal", allocs[0], allocs[1])
			}
		})
	}
}

// TestEvictRecoverAllocationBounded pins the memory of namespace churn:
// an eviction streams the state into its evict file through a pooled
// buffer, and a recovery reads it back through a pooled one, so a round
// trip of a plain, a windowed and an elastic namespace allocates the
// recovered state plus a fixed bound, measured as
// TestOpenStoreAllocationBounded measures a load.
func TestEvictRecoverAllocationBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are distorted under -race")
	}
	s, err := OpenStore(testStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The fixed part: the two pooled snapio buffers, which a collection
	// may have emptied, and the files', paths' and registry's small
	// change. A second copy of the state, such as a marshal before the
	// write, does not fit in it.
	const bound = 2*snapio.BufSize + 32<<10
	for name, cfg := range map[string]wire.NsConfig{
		"churn-plain": {MemoryBits: 1 << 23, ExpectedItems: 1 << 16},
		"churn-win":   {MemoryBits: 1 << 22, ExpectedItems: 1 << 15, WindowNanos: uint64(time.Hour), Generations: 2},
		"churn-chain": {MemoryBits: 1 << 23, ExpectedItems: 1 << 16, Flags: wire.NsFlagElastic},
	} {
		if _, err := s.nsCreateEnq([]byte(name), cfg, nil); err != nil {
			t.Fatal(err)
		}
		keys := storeKeys(name, 5000)
		nsInsertBatch(t, s, name, keys)
		e := s.reg.Lookup([]byte(name))
		state := e.Stats().MemoryBits / 8
		var evictErr, recoverErr error
		roundTrip := func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if evictErr = s.reg.Evict(e); evictErr == nil && !e.Resident() {
				recoverErr = s.residentLocked(e)
			}
		}
		roundTrip() // the first round trip fills the buffer pools
		n := allocatedBy(roundTrip)
		if evictErr != nil || recoverErr != nil || !e.Resident() {
			t.Fatalf("%s: evict %v, recover %v, resident %v", name, evictErr, recoverErr, e.Resident())
		}
		if n > state+bound {
			t.Errorf("%s: evict+recover allocated %d bytes, want at most the %d-byte state + %d", name, n, state, bound)
		}
		t.Logf("%s: evict+recover: state + %d bytes", name, int64(n)-int64(state))
		nsMustContain(t, s, name, keys)
	}
}

// TestRecoverIntoVictimAllocationBounded pins namespace churn under a
// quota to no filter memory: a recovery that has to evict a namespace of
// its own geometry decodes into the arenas the victim frees, so it
// allocates at most the fixed part of TestEvictRecoverAllocationBounded's
// bound, with no term for the state's size, for plain, windowed and
// elastic namespaces alike.
func TestRecoverIntoVictimAllocationBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are distorted under -race")
	}
	const bound = 2*snapio.BufSize + 32<<10
	for mode, cfg := range map[string]wire.NsConfig{
		"plain":   {MemoryBits: 1 << 23, ExpectedItems: 1 << 16},
		"window":  {MemoryBits: 1 << 22, ExpectedItems: 1 << 15, WindowNanos: uint64(time.Hour), Generations: 2},
		"elastic": {MemoryBits: 1 << 23, ExpectedItems: 1 << 16, Flags: wire.NsFlagElastic},
	} {
		t.Run(mode, func(t *testing.T) {
			opts := testStoreOptions(t.TempDir())
			opts.NsQuota = 3 << 19 // one 1 MiB namespace, not two
			s, err := OpenStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			names := []string{mode + "-a", mode + "-b"}
			keys := make(map[string][][]byte)
			for _, name := range names {
				if _, err := s.nsCreateEnq([]byte(name), cfg, nil); err != nil {
					t.Fatal(err)
				}
				keys[name] = storeKeys(name, 5000)
				nsInsertBatch(t, s, name, keys[name])
			}
			var recoverErr error
			recoverNS := func(name string) func() {
				return func() {
					s.mu.Lock()
					defer s.mu.Unlock()
					recoverErr = s.residentLocked(s.reg.Lookup([]byte(name)))
				}
			}
			recoverNS(names[0])() // the first recovery fills the buffer pools
			a, b := s.reg.Lookup([]byte(names[0])), s.reg.Lookup([]byte(names[1]))
			if recoverErr != nil || !a.Resident() || b.Resident() {
				t.Fatalf("warm-up recovery: %v; resident %v, %v; want only %s", recoverErr, a.Resident(), b.Resident(), names[0])
			}
			_, before := s.reg.Snapshot()
			n := allocatedBy(recoverNS(names[1]))
			_, after := s.reg.Snapshot()
			if recoverErr != nil || a.Resident() || !b.Resident() {
				t.Fatalf("recovery: %v; resident %v, %v; want only %s", recoverErr, a.Resident(), b.Resident(), names[1])
			}
			if n > bound {
				t.Errorf("recovery evicting a same-geometry victim allocated %d bytes, want at most %d", n, bound)
			}
			state := b.Stats().MemoryBits / 8
			if reused := after.ReusedBytes - before.ReusedBytes; reused < state {
				t.Errorf("recovery reused %d bytes of its victim's arenas, want the whole %d-byte state", reused, state)
			}
			t.Logf("recovery evicting a %d-byte victim allocated %d bytes", state, n)
			for _, name := range names {
				nsMustContain(t, s, name, keys[name])
			}
		})
	}
}
