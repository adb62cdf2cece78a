package mpcbf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// batchFuzzGeometries are per-shard filter layouts of a few words each, so
// that batches over a small key space hit duplicate keys, deletes of
// absent keys and full words. The first two take plans (the kernel
// geometry, and k at the most slots a plan packs); the rest apply key by
// key: one slot too many, g=2, w=128, and the generic arena path.
var batchFuzzGeometries = []core.Config{
	{MemoryBits: 256, B1: 40, W: 64, K: 3},
	{MemoryBits: 256, B1: 44, W: 64, K: 10},
	{MemoryBits: 256, B1: 40, W: 64, K: 11},
	{MemoryBits: 512, B1: 24, W: 64, K: 4, G: 2},
	{MemoryBits: 512, B1: 80, W: 128, K: 3},
	{MemoryBits: 256, B1: 40, W: 64, K: 3, DisableKernel: true},
}

const (
	batchFuzzShards  = 3 // shards of every fuzzed filter
	maxBatchTape     = 512
	maxFanOutBatches = 4
	// fuzzRunnerKeys is what FuzzBatchVsSequential lowers minRunnerKeys
	// to: a fan-out batch then needs 3*16 keys instead of 3*1024, and
	// every other batch, at most 31 keys, stays under 2*16 and so on the
	// calling goroutine.
	fuzzRunnerKeys = 16
)

// newFuzzSharded builds a Sharded whose shards follow cfg, seeded the way
// NewSharded seeds them; cfg can reach layouts Options cannot.
func newFuzzSharded(t *testing.T, cfg core.Config) *Sharded {
	t.Helper()
	s := &Sharded{shards: make([]shard, batchFuzzShards), pick: pickHasher(cfg.Seed), seed: cfg.Seed}
	for i := range s.shards {
		c := cfg
		c.Seed = cfg.Seed + uint32(i)*0x9e3779b9
		f, err := core.New(c)
		if err != nil {
			t.Fatal(err)
		}
		s.shards[i].f = &MPCBF{f: f}
	}
	return s
}

// shardOrder returns the batch indices of keys grouped by owning shard,
// each shard's in batch order, with the shard of each.
func shardOrder(s *Sharded, keys [][]byte) (idx, owner []int) {
	for i := range s.shards {
		for k, key := range keys {
			if s.shardOf(key) == &s.shards[i] {
				idx, owner = append(idx, k), append(owner, i)
			}
		}
	}
	return idx, owner
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// batchFuzzChain is the chain layout: three generations, oldest first,
// of the kernel, g=2 and generic layouts of batchFuzzGeometries.
var batchFuzzChain = []int{0, 3, 5}

// errFuzzAbsent is the fuzzed chains' absent-key error.
var errFuzzAbsent = errors.New("fuzz: delete of key absent from every generation")

// fuzzFilter is the op set FuzzBatchVsSequential drives, on a Sharded or
// a Chain.
type fuzzFilter interface {
	InsertBatch(keys [][]byte, workers int) error
	DeleteBatch(keys [][]byte, workers int) ([]bool, error)
	ContainsBatchInto(keys [][]byte, sc *BatchScratch) []bool
	Insert(key []byte) error
	Delete(key []byte) error
	Contains(key []byte) bool
}

// generations returns f's generations, oldest first: f itself for a
// Sharded.
func generations(f fuzzFilter) []*Sharded {
	if s, ok := f.(*Sharded); ok {
		return []*Sharded{s}
	}
	var gens []*Sharded
	f.(*Chain).View(func(g []*Sharded) { gens = append(gens, g...) })
	return gens
}

// FuzzBatchVsSequential decodes a tape into batches and applies each one
// three ways: through InsertBatch, DeleteBatch and ContainsBatchInto on
// one filter; through per-key Insert, Delete and Contains on a twin; and,
// as write-ahead-log replay does, through the same insert batches but
// only the deletes that succeeded on a replay twin. A filter is one of
// batchFuzzGeometries or a chain of three (batchFuzzChain). The filter
// and both twins must agree on every generation's MarshalBinary bytes,
// Len, SaturatedWords and OverflowEvents after every batch, and the batch
// ops with the per-key ones on errors and flags. Reads of a plain layout
// also run through a chain, behind an empty generation.
//
// Tape: geom picks a layout and an overflow policy. Each batch is a
// header byte — op in bits 7-6 (0 insert, 1 delete, 2 contains, 3 insert
// or, on a chain, rotate it: its oldest generation becomes the newest),
// bit 5 repeats the batch to 3*minRunnerKeys keys or more so that it fans
// out over three goroutines (at most maxFanOutBatches times a tape), bits
// 4-0 the key count — then one byte per key, of which the low six bits
// name it. Tapes are cut at maxBatchTape bytes, and minRunnerKeys is
// lowered to fuzzRunnerKeys, to keep every run short.
func FuzzBatchVsSequential(f *testing.F) {
	defer func(n int) { minRunnerKeys = n }(minRunnerKeys)
	minRunnerKeys = fuzzRunnerKeys
	layouts := len(batchFuzzGeometries) + 1
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < 2*layouts; g++ {
		for i := 0; i < 3; i++ {
			tape := make([]byte, 64+rng.Intn(192))
			rng.Read(tape)
			f.Add(uint8(g), tape)
		}
	}
	f.Fuzz(func(t *testing.T, geom uint8, tape []byte) {
		layout := int(geom) % layouts
		build := func() fuzzFilter {
			// cfg is layout g's configuration for generation i.
			cfg := func(g, i int) core.Config {
				c := batchFuzzGeometries[g]
				c.Seed = uint32(geom) + uint32(i)
				if int(geom)/layouts%2 == 0 {
					c.Overflow = core.OverflowSaturate
				}
				return c
			}
			if layout < len(batchFuzzGeometries) {
				return newFuzzSharded(t, cfg(layout, 0))
			}
			gens := make([]*Sharded, len(batchFuzzChain))
			for i, g := range batchFuzzChain {
				gens[i] = newFuzzSharded(t, cfg(g, i))
			}
			return NewChain(errFuzzAbsent, gens...)
		}
		batched, seq, replay := build(), build(), build()
		plain, isPlain := batched.(*Sharded)
		var sc, chainSc BatchScratch
		var readChain *Chain
		if isPlain {
			readChain = NewChain(errFuzzAbsent, plain, newFuzzSharded(t, batchFuzzGeometries[layout]))
		}
		tape = tape[:min(len(tape), maxBatchTape)]
		fanOuts := 0
		for step := 0; len(tape) > 0; step++ {
			h := tape[0]
			n := min(int(h&0x1f), len(tape)-1)
			var keys [][]byte
			for _, id := range tape[1 : 1+n] {
				keys = append(keys, []byte{'k', id & 0x3f})
			}
			tape = tape[1+n:]
			workers := 0
			if h&0x20 != 0 && n > 0 && fanOuts < maxFanOutBatches {
				fanOuts++
				for len(keys) < 3*minRunnerKeys {
					keys = append(keys, keys[:n]...)
				}
				workers = 3
			}
			gens := generations(seq)
			idx, owner := shardOrder(gens[len(gens)-1], keys)
			switch op := h >> 6; {
			case op == 3 && !isPlain:
				for _, c := range []fuzzFilter{batched, seq, replay} {
					c.(*Chain).Update(func(g []*Sharded) []*Sharded { return append(g[1:], g[0]) })
				}
			case op == 0 || op == 3:
				got := batched.InsertBatch(keys, workers)
				var errs []error
				stopped := -1
				for j, k := range idx {
					if owner[j] == stopped {
						continue
					}
					if err := seq.Insert(keys[k]); err != nil {
						errs = append(errs, fmt.Errorf("mpcbf: shard %d: %w", owner[j], err))
						stopped = owner[j]
					}
				}
				if want := errors.Join(errs...); errText(got) != errText(want) {
					t.Fatalf("step %d: InsertBatch error %q, key by key %q", step, errText(got), errText(want))
				}
				if err := replay.InsertBatch(keys, workers); errText(err) != errText(got) {
					t.Fatalf("step %d: replayed InsertBatch error %q, live %q", step, errText(err), errText(got))
				}
			case op == 1:
				gotOK, got := batched.DeleteBatch(keys, workers)
				wantOK := make([]bool, len(keys))
				var want error
				if isPlain {
					var errs, shardErrs []error
					for j, k := range idx {
						if err := seq.Delete(keys[k]); err != nil {
							shardErrs = append(shardErrs, fmt.Errorf("mpcbf: shard %d key %d: %w", owner[j], k, err))
						} else {
							wantOK[k] = true
						}
						if j == len(idx)-1 || owner[j+1] != owner[j] {
							errs = append(errs, errors.Join(shardErrs...))
							shardErrs = nil
						}
					}
					want = errors.Join(errs...)
				} else {
					for k, key := range keys {
						err := seq.Delete(key)
						if err != nil && !errors.Is(err, errFuzzAbsent) {
							t.Fatalf("step %d: chain Delete of key %d: %v", step, k, err)
						}
						wantOK[k] = err == nil
					}
				}
				if errText(got) != errText(want) {
					t.Fatalf("step %d: DeleteBatch error %q, key by key %q", step, errText(got), errText(want))
				}
				var logged [][]byte
				for k := range keys {
					if gotOK[k] != wantOK[k] {
						t.Fatalf("step %d: DeleteBatch flag %d = %v, key by key %v", step, k, gotOK[k], wantOK[k])
					}
					if gotOK[k] {
						logged = append(logged, keys[k])
					}
				}
				ok, _ := replay.DeleteBatch(logged, 0)
				if i := slices.Index(ok, false); i >= 0 {
					t.Fatalf("step %d: replayed delete of logged key %d failed", step, i)
				}
			case op == 2:
				got := batched.ContainsBatchInto(keys, &sc)
				var chain []bool
				if isPlain {
					chain = readChain.ContainsBatchInto(keys, &chainSc)
				}
				for k, key := range keys {
					want := seq.Contains(key)
					if got[k] != want || (isPlain && chain[k] != want) {
						t.Fatalf("step %d: key %d: ContainsBatchInto %v, chain %v, Contains %v", step, k, got[k], chain, want)
					}
				}
				if isPlain {
					single := plain.shards[0].f.ContainsBatch(keys, nil)
					for k, key := range keys {
						if w := plain.shards[0].f.Contains(key); single[k] != w {
							t.Fatalf("step %d: key %d: MPCBF.ContainsBatch %v, Contains %v", step, k, single[k], w)
						}
					}
				}
			}
			for i, g := range generations(batched) {
				checkTwinSharded(t, fmt.Sprintf("step %d: generation %d: per key", step, i), g, generations(seq)[i])
				checkTwinSharded(t, fmt.Sprintf("step %d: generation %d: replayed", step, i), g, generations(replay)[i])
			}
		}
	})
}

// checkTwinSharded requires a and b to hold the same state.
func checkTwinSharded(t *testing.T, step string, a, b *Sharded) {
	t.Helper()
	if a.Len() != b.Len() || a.SaturatedWords() != b.SaturatedWords() {
		t.Fatalf("%s: Len %d vs %d, SaturatedWords %d vs %d", step, a.Len(), b.Len(), a.SaturatedWords(), b.SaturatedWords())
	}
	for i := range a.shards {
		if x, y := a.shards[i].f.OverflowEvents(), b.shards[i].f.OverflowEvents(); x != y {
			t.Fatalf("%s: shard %d OverflowEvents %d vs %d", step, i, x, y)
		}
	}
	x, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	y, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Fatalf("%s: MarshalBinary bytes differ", step)
	}
}
