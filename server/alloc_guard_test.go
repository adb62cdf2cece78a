package server

import (
	"testing"
	"time"

	mpcbf "repro"
	"repro/server/wire"
)

// Allocation-regression guards for the steady-state request path. The
// zero-alloc codec is a measured property, not a structural one — a
// stray closure or slice growth reintroduces per-request garbage without
// failing any functional test — so these fail the build the moment the
// hot paths allocate again. Skipped under -race: its instrumentation
// allocates and would make the counts meaningless.

// TestDispatchZeroAllocs pins 0 allocs/op for single-key INSERT, DELETE
// (both through a durable commit wait at SyncAlways), CONTAINS, and a
// 72-key CONTAINS_BATCH on the default filter, on plain, windowed and
// elastic namespaces, and on an unknown namespace, end-to-end through
// the server dispatch layer.
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
		"untraced envelope": append(wire.AppendTraceUntraced(nil), inner...),
	} {
		var tr *reqTrace
		if avg := testing.AllocsPerRun(100, func() { _, tr = tc.beginFrame(payload) }); avg != 0 || tr != nil {
			t.Errorf("%s: %.1f allocs/op, traced %v; want 0 and untraced", name, avg, tr != nil)
		}
	}
	traced := append(wire.AppendTrace(nil, [wire.TraceIDLen]byte{1}, 7), inner...)
	if _, tr := tc.beginFrame(traced); tr == nil {
		t.Error("traced envelope: no trace before decoding")
	}
}

// TestWireCodecZeroAllocs pins 0 allocs/op for the request/response
// codec itself: encoding single-key and batch requests into reused
// buffers, decoding them with a reused key-scratch, and decoding bool
// vectors into a reused result slice.
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
