package window

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	mpcbf "repro"
)

// FuzzUnmarshalFilter hammers the window decoder, which replica
// bootstrap and namespace containers reach over the network: malformed
// input must return an error without panicking or allocating far past
// its own size, and anything it accepts must re-marshal to the same
// bytes — ring slots, head and all.
func FuzzUnmarshalFilter(f *testing.F) {
	mk := func(g, rotations int) []byte {
		w, err := New(Options{
			Span:        time.Minute,
			Generations: g,
			Filter:      mpcbf.Options{MemoryBits: 1 << 10, ExpectedItems: 32, Seed: 5},
			Shards:      2,
		})
		if err != nil {
			f.Fatal(err)
		}
		for r := 0; r <= rotations; r++ {
			for i := 0; i < 20; i++ {
				if err := w.InsertTTL([]byte{byte(r), byte(i)}, time.Duration(i)*time.Second); err != nil {
					f.Fatal(err)
				}
			}
			if r < rotations {
				w.Rotate()
			}
		}
		b, err := w.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	single, fresh, rotated := mk(1, 3), mk(3, 0), mk(3, 5)
	for _, b := range [][]byte{single, fresh, rotated, {}, rotated[:windowHdrLen], rotated[:len(rotated)-3]} {
		f.Add(b)
	}
	// A ring far larger than the body, and a generation longer than it.
	huge := bytes.Clone(fresh)
	binary.LittleEndian.PutUint32(huge[8:12], 1<<10)
	f.Add(huge)
	long := bytes.Clone(single)
	binary.LittleEndian.PutUint32(long[windowHdrLen:], 1<<30)
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		var w *Filter
		var err error
		if n := allocated(func() { w, err = UnmarshalFilter(data) }); n > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d (accepted: %v)", len(data), n, err == nil)
		}
		if err != nil {
			return
		}
		out, err := w.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted window fails to re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted window not byte-stable across re-marshal")
		}
		// Accepted windows must be operable.
		w.Contains([]byte("probe"))
		w.Rotate()
		_ = w.Stats()
	})
}

// maxDecodeAlloc bounds what decoding n bytes may allocate: the
// decoder's one 64 KiB read buffer, plus the decoded filters, whose
// per-shard bookkeeping costs a bounded multiple of their encoding.
func maxDecodeAlloc(n int) uint64 { return 128<<10 + 64*uint64(n) }

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
