package client

import (
	"bufio"
	"net"
	"testing"
	"time"

	"repro/server/wire"
)

// TestClientEncodeZeroAllocs pins 0 allocs/op for the client's request
// encoding (a handle addresses a wire.Request to its namespace and
// trace, and wire.AppendRequest encodes it into the reused buffer) and
// batch-response decoding into a caller-reused slice. Skipped under
// -race: its instrumentation allocates and would make the counts
// meaningless.
func TestClientEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	key := []byte("alloc-guard-key")
	keys := make([][]byte, 32)
	for i := range keys {
		keys[i] = key
	}
	dst := make([]byte, 0, 2048)
	var h Handle
	tc := Trace{ID: [wire.TraceIDLen]byte{1, 2, 3}, Parent: 7}
	for _, c := range []struct {
		name string
		h    Handle
		req  wire.Request
	}{
		{"single-key", h, wire.Request{Op: wire.OpInsert, Key: key}},
		{"namespaced single-key", h.Namespace("tenant-a"), wire.Request{Op: wire.OpInsert, Key: key}},
		{"batch", h, wire.Request{Op: wire.OpContainsBatch, Keys: keys}},
		{"ttl batch", h, wire.Request{Op: wire.OpInsertTTLBatch, Keys: keys, TTL: 1e9}},
		{"traced namespaced", h.Namespace("tenant-a").Traced(tc), wire.Request{Op: wire.OpInsert, Key: key}},
	} {
		encode := func() {
			c.h.address(&c.req)
			dst = wire.AppendRequest(dst[:0], &c.req)
		}
		encode()
		if avg := testing.AllocsPerRun(100, encode); avg != 0 {
			t.Errorf("encode %s: %.1f allocs/op, want 0", c.name, avg)
		}
	}

	flags := make([]bool, len(keys))
	body := wire.AppendBools(nil, flags)
	boolScratch := make([]bool, 0, len(keys))
	decode := func() {
		out, err := wire.DecodeBoolsInto(body, boolScratch)
		if err != nil {
			t.Fatal(err)
		}
		boolScratch = out[:0]
	}
	decode()
	if avg := testing.AllocsPerRun(100, decode); avg != 0 {
		t.Errorf("decode bools: %.1f allocs/op, want 0", avg)
	}
}

// benchServer is fakeServer for benchmarks: an in-process responder
// with no store behind it, isolating the client's own per-request cost.
func benchServer(b *testing.B) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r := bufio.NewReader(conn)
				w := bufio.NewWriter(conn)
				var buf []byte
				resp := wire.AppendBool(wire.AppendOK(nil), true)
				for {
					payload, err := wire.ReadFrame(r, buf, 0)
					if err != nil {
						return
					}
					buf = payload[:0]
					if err := wire.WriteFrame(w, resp); err != nil {
						return
					}
					if err := w.Flush(); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// BenchmarkClientRoundTrip is the -benchmem evidence that a synchronous
// client operation allocates nothing in steady state: encode, frame
// write, frame read, and status decode all run through reused buffers.
func BenchmarkClientRoundTrip(b *testing.B) {
	c, err := Dial(benchServer(b), WithTimeout(5*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	key := []byte("bench-key")
	if _, err := c.Contains(key); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Insert(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientBatchRoundTripInto covers the batch form: with the
// caller recycling the result slice via ContainsBatchInto, a batch
// request is also 0 allocs/op end to end. (The fake responder answers
// [OK][bool], which DecodeBoolsInto rejects — error paths allocate — so
// this benchServer variant isn't reused; instead the responder answer is
// shaped per-op by inspecting the opcode byte.)
func BenchmarkClientBatchRoundTripInto(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		w := bufio.NewWriter(conn)
		var buf, resp []byte
		flags := make([]bool, 16)
		for {
			payload, err := wire.ReadFrame(r, buf, 0)
			if err != nil {
				return
			}
			buf = payload[:0]
			resp = wire.AppendBools(wire.AppendOK(resp[:0]), flags)
			if err := wire.WriteFrame(w, resp); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), WithTimeout(5*time.Second))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = []byte("bench-batch-key")
	}
	flags, err := c.ContainsBatchInto(keys, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flags, err = c.ContainsBatchInto(keys, flags[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}
