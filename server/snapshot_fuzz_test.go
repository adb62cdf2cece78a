package server

import (
	"bytes"
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
