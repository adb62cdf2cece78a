package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"testing"
	"time"

	mpcbf "repro"
	"repro/elastic"
	"repro/internal/core"
	"repro/internal/snapio"
	"repro/server/ns"
	"repro/server/wire"
	"repro/window"
)

// decodeEvicted is the evictedFunc of a full decode: it decodes an
// evicted container entry's state as a resident one's and drops it, so
// the decode side of FuzzCheckVsDecode judges every state in a
// container.
func decodeEvicted(_ string, rd *snapio.Reader, n int64) (string, error) {
	_, err := ns.DecodeState(rd, n)
	return "", err
}

// Formats FuzzCheckVsDecode tells apart by its kind argument.
const (
	fuzzCore = iota
	fuzzSharded
	fuzzWindow
	fuzzElastic
	fuzzContainer
	fuzzKinds
)

// FuzzCheckVsDecode holds the verify path to the decoders: for any
// input, checking a core filter, Sharded, window, elastic or store
// payload encoding (a namespace container included) must succeed
// exactly when decoding it does. kind picks the format; the seeds are
// valid encodings of each, generic word widths among them.
func FuzzCheckVsDecode(f *testing.F) {
	must := func(data []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	keys := storeKeys("fuzz", 40)
	for _, w := range []int{64, 48} {
		flt, err := core.New(core.Config{MemoryBits: 16 * w, W: w, K: 3, B1: w / 2})
		if err != nil {
			f.Fatal(err)
		}
		for _, k := range keys {
			_ = flt.Insert(k)
		}
		f.Add(uint8(fuzzCore), must(flt.MarshalBinary()))
	}
	sh, err := mpcbf.NewSharded(mpcbf.Options{MemoryBits: 1 << 10, ExpectedItems: 40, Seed: 3}, 2)
	if err != nil {
		f.Fatal(err)
	}
	if err := sh.InsertBatch(keys, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(fuzzSharded), must(sh.MarshalBinary()))
	win, err := window.New(window.Options{Span: time.Hour, Generations: 2, Shards: 2,
		Filter: mpcbf.Options{MemoryBits: 1 << 10, ExpectedItems: 40}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(fuzzWindow), must(win.MarshalBinary()))
	el, err := elastic.New(elastic.Options{Shards: 2, Filter: mpcbf.Options{MemoryBits: 1 << 10, ExpectedItems: 40}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(fuzzElastic), must(el.MarshalBinary()))

	// A container: the default filter, a resident windowed namespace and
	// an evicted elastic one.
	s, err := OpenStore(testStoreOptions(f.TempDir()))
	if err != nil {
		f.Fatal(err)
	}
	for name, cfg := range map[string]wire.NsConfig{
		"fz-win":   {MemoryBits: 1 << 10, ExpectedItems: 40, Shards: 2, WindowNanos: uint64(time.Hour), Generations: 2},
		"fz-chain": {MemoryBits: 1 << 10, ExpectedItems: 40, Shards: 2, Flags: wire.NsFlagElastic},
	} {
		if _, err := s.nsCreateEnq([]byte(name), cfg, nil); err != nil {
			f.Fatal(err)
		}
		_, ticket, err := s.mutateEnq(wire.OpInsertBatch, []byte(name), nil, keys, 0, nil, nil)
		if err := s.wait(ticket, err); err != nil {
			f.Fatal(err)
		}
	}
	s.mu.Lock()
	err = s.reg.Evict(s.reg.Lookup([]byte("fz-chain")))
	s.mu.Unlock()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(fuzzContainer), must(s.MarshalFilter()))
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(fuzzCore), []byte{})

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		n := int64(len(data))
		src := func() *snapio.Reader { return snapio.NewReader(bytes.NewReader(data), n) }
		var decErr, chkErr error
		switch kind % fuzzKinds {
		case fuzzCore:
			_, decErr = core.Decode(src(), n)
			chkErr = core.Check(src(), n)
		case fuzzSharded:
			_, decErr = mpcbf.ReadSharded(src(), n)
			chkErr = mpcbf.CheckSharded(src(), n)
		case fuzzWindow:
			_, decErr = window.ReadFilter(src(), n)
			chkErr = window.CheckFilter(src(), n)
		case fuzzElastic:
			_, decErr = elastic.ReadFilter(src(), n)
			chkErr = elastic.CheckFilter(src(), n)
		case fuzzContainer:
			_, decErr = decodeSnapPayload(src(), n, decodeEvicted)
			chkErr = checkSnapPayload(src(), n)
		}
		if (decErr == nil) != (chkErr == nil) {
			t.Fatalf("kind %d: decode says %v, check says %v", kind%fuzzKinds, decErr, chkErr)
		}
	})
}

// reusable is what FuzzDecodeIntoDirtyArenas needs of a decoded state.
type reusable interface {
	MarshalBinary() ([]byte, error)
	ReleaseArenas(put func(words []uint64))
}

// Formats FuzzDecodeIntoDirtyArenas tells apart by its kind argument.
const (
	dirtySharded = iota
	dirtyWindow
	dirtyElastic
	dirtyKinds
)

// pageEdgeSharded returns a Sharded whose two shard arenas are several
// pages long and not a page multiple, holding a few keys, among them one
// whose word is the first of a page and one whose word is the last, so
// most of its pages hold only zeros. Each key's word is found by
// inserting it alone into an empty filter of the same geometry.
func pageEdgeSharded(tb testing.TB) *mpcbf.Sharded {
	pageWords := os.Getpagesize() / 8
	opts := mpcbf.Options{MemoryBits: 2 * 64 * (9*pageWords + pageWords/3), ExpectedItems: 64, Seed: 9}
	newSharded := func() *mpcbf.Sharded {
		s, err := mpcbf.NewSharded(opts, 2)
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	sh := newSharded()
	first, last := false, false
	for i := 0; !first || !last; i++ {
		key := []byte(fmt.Sprintf("page-edge-%d", i))
		probe := newSharded()
		if err := probe.Insert(key); err != nil {
			tb.Fatal(err)
		}
		at := -1 // the key's word index in its shard's arena
		probe.ReleaseArenas(func(words []uint64) {
			for j, x := range words {
				if x != 0 {
					at = j
				}
			}
		})
		switch {
		case at%pageWords == 0 && !first:
			first = true
		case at%pageWords == pageWords-1 && !last:
			last = true
		case i >= 4:
			continue
		}
		if err := sh.Insert(key); err != nil {
			tb.Fatal(err)
		}
	}
	return sh
}

// FuzzDecodeIntoDirtyArenas holds the decoders to the reuse contract a
// recovery relies on: a Sharded, window or elastic encoding decoded into
// donor arenas that held random words re-encodes to the same bytes as
// the encoding decoded fresh, taking every donor arena of the length it
// needs, and every donor word reads zero once released (Arenas.Put).
// kind picks the format and seed the donors' words; the seeds are valid
// encodings of each format, a generic word width among them, and one
// Sharded whose arenas span several pages, most of them all zero, so
// Put hands pages back and the decode skips them.
func FuzzDecodeIntoDirtyArenas(f *testing.F) {
	must := func(data []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	keys := storeKeys("dirty", 60)
	for _, w := range []int{64, 48} {
		sh, err := mpcbf.NewSharded(mpcbf.Options{MemoryBits: 1 << 11, ExpectedItems: 60, WordBits: w, Seed: 5}, 2)
		if err != nil {
			f.Fatal(err)
		}
		if err := sh.InsertBatch(keys, 0); err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(dirtySharded), uint64(w), must(sh.MarshalBinary()))
	}
	win, err := window.New(window.Options{Span: time.Hour, Generations: 3, Shards: 2,
		Filter: mpcbf.Options{MemoryBits: 1 << 10, ExpectedItems: 40}})
	if err != nil {
		f.Fatal(err)
	}
	for i, k := range keys {
		if i%20 == 0 {
			win.Rotate()
		}
		if err := win.Insert(k); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(uint8(dirtyWindow), uint64(3), must(win.MarshalBinary()))
	el, err := elastic.New(elastic.Options{Shards: 2, Filter: mpcbf.Options{MemoryBits: 1 << 10, ExpectedItems: 20}})
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range keys {
		if err := el.Insert(k); err != nil {
			f.Fatal(err)
		}
		if el.NeedsGrow() {
			if err := el.Grow(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if el.Generations() < 2 {
		f.Fatalf("elastic seed has %d generations, want a grown chain", el.Generations())
	}
	f.Add(uint8(dirtyElastic), uint64(7), must(el.MarshalBinary()))
	f.Add(uint8(dirtySharded), uint64(11), must(pageEdgeSharded(f).MarshalBinary()))

	f.Fuzz(func(t *testing.T, kind uint8, seed uint64, data []byte) {
		n := int64(len(data))
		decode := func(a *mpcbf.Arenas) (st reusable, err error) {
			rd := snapio.NewReader(bytes.NewReader(data), n)
			switch kind % dirtyKinds {
			case dirtySharded:
				st, err = mpcbf.ReadShardedReusing(rd, n, a)
			case dirtyWindow:
				st, err = window.ReadFilterReusing(rd, n, a)
			case dirtyElastic:
				st, err = elastic.ReadFilterReusing(rd, n, a)
			}
			return st, err
		}
		fresh, err := decode(nil)
		if err != nil {
			return
		}
		want, err := fresh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		// The donors are a second fresh decode's arenas, scrambled.
		donor, err := decode(nil)
		if err != nil {
			t.Fatalf("second fresh decode: %v", err)
		}
		rng := rand.New(rand.NewPCG(seed, ^seed))
		var a mpcbf.Arenas
		var donated int64
		donor.ReleaseArenas(func(words []uint64) {
			for i := range words {
				words[i] = rng.Uint64()
			}
			donated += 8 * int64(len(words))
			a.Put(words)
			for i, x := range words {
				if x != 0 {
					t.Fatalf("kind %d: word %d of a released arena reads %#x", kind%dirtyKinds, i, x)
				}
			}
		})
		reused, err := decode(&a)
		if err != nil {
			t.Fatalf("kind %d: decode into donor arenas: %v (a fresh decode succeeded)", kind%dirtyKinds, err)
		}
		got, err := reused.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("kind %d: decoded into donor arenas, the state re-encodes differently from a fresh decode", kind%dirtyKinds)
		}
		if a.Reused() != donated {
			t.Fatalf("kind %d: the decode took %d of %d donor bytes", kind%dirtyKinds, a.Reused(), donated)
		}
	})
}
