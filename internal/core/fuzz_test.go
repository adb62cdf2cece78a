package core

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the deserializer: it must reject
// or accept without ever panicking, and round-trip anything it accepts.
func FuzzUnmarshal(f *testing.F) {
	mk := func(cfg Config, n int) []byte {
		flt, err := New(cfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			_ = flt.Insert([]byte{byte(i), byte(i >> 8)})
		}
		data, err := flt.MarshalBinary()
		if err != nil {
			panic(err)
		}
		return data
	}
	f.Add(mk(Config{MemoryBits: 1 << 12, B1: 40, K: 3}, 10))
	f.Add(mk(Config{MemoryBits: 1 << 10, B1: 32, K: 2, G: 2, Overflow: OverflowSaturate}, 40))
	f.Add([]byte{})
	f.Add([]byte("BCPM gibberish"))
	f.Add(wrappedLengthBlob())

	f.Fuzz(func(t *testing.T, data []byte) {
		flt, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Anything accepted must be internally consistent enough to
		// re-serialize to an equal byte string.
		out, err := flt.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted filter fails to marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip not stable: %d vs %d bytes", len(out), len(data))
		}
		// And queries must not panic.
		flt.Contains([]byte("probe"))
	})
}

// FuzzKernelVsGeneric replays an arbitrary insert/delete/query tape on a
// kernel filter and a DisableKernel twin, requiring identical errors,
// queries, element counts, and raw arena bits after every operation. This is
// the end-to-end half of the kernel equivalence argument; the word-level
// half lives in internal/hcbf.FuzzWordKernelVsGeneric.
func FuzzKernelVsGeneric(f *testing.F) {
	f.Add(false, []byte{0, 1, 2, 3, 128, 129})
	f.Add(false, []byte{5, 5, 5, 133, 133, 133, 69, 69})
	f.Add(true, []byte{0, 1, 2, 3, 0, 1, 2, 3, 128})
	f.Fuzz(func(t *testing.T, wide bool, tape []byte) {
		w := 64
		if wide {
			w = 128
		}
		cfg := Config{MemoryBits: 1 << 12, ExpectedN: 40, W: w, K: 3, Seed: 2,
			Overflow: OverflowSaturate}
		k, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gcfg := cfg
		gcfg.DisableKernel = true
		g, err := New(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range tape {
			key := []byte{op & 0x3f}
			switch {
			case op&0x80 == 0:
				kerr := k.Insert(key)
				gerr := g.Insert(key)
				if (kerr == nil) != (gerr == nil) {
					t.Fatalf("op %d: Insert errs %v vs %v", i, kerr, gerr)
				}
			case op&0x40 == 0:
				kerr := k.Delete(key)
				gerr := g.Delete(key)
				if (kerr == nil) != (gerr == nil) {
					t.Fatalf("op %d: Delete errs %v vs %v", i, kerr, gerr)
				}
			default:
				if k.Contains(key) != g.Contains(key) {
					t.Fatalf("op %d: Contains diverges", i)
				}
				if k.CountOf(key) != g.CountOf(key) {
					t.Fatalf("op %d: CountOf diverges", i)
				}
			}
			if !k.arena.Equal(g.arena) {
				t.Fatalf("op %d: arenas diverge", i)
			}
			if k.count != g.count {
				t.Fatalf("op %d: count %d vs %d", i, k.count, g.count)
			}
		}
	})
}

// FuzzFilterOps drives a small filter with an arbitrary key/op tape,
// checking the no-false-negative guarantee throughout.
func FuzzFilterOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 128, 129})
	f.Add([]byte{5, 5, 5, 133, 133, 133})
	f.Fuzz(func(t *testing.T, tape []byte) {
		flt, err := New(Config{MemoryBits: 1 << 12, B1: 32, K: 3, Seed: 1,
			Overflow: OverflowSaturate})
		if err != nil {
			t.Fatal(err)
		}
		ref := make(map[byte]int)
		for _, op := range tape {
			id := op & 0x7f
			key := []byte{id}
			if op&0x80 == 0 {
				if err := flt.Insert(key); err != nil {
					t.Fatalf("insert under saturate policy failed: %v", err)
				}
				ref[id]++
			} else if ref[id] > 0 {
				if err := flt.Delete(key); err != nil {
					t.Fatalf("delete of present key: %v", err)
				}
				ref[id]--
			}
			for id, n := range ref {
				if n > 0 && !flt.Contains([]byte{id}) {
					t.Fatalf("false negative for %d (count %d)", id, n)
				}
			}
		}
	})
}
