package mpcbf

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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

// FuzzBatchVsSequential decodes a tape into batches and applies each one
// three ways: through InsertBatch, DeleteBatch and ContainsBatchInto on
// one filter; through per-key Insert, Delete and Contains in shard order
// on a twin; and, for reads, through ContainsChainInto behind an empty
// generation. Every path must agree on MarshalBinary bytes, Len,
// SaturatedWords, OverflowEvents, errors and flags after every batch.
//
// Tape: geom picks a layout from batchFuzzGeometries and an overflow
// policy. Each batch is a header byte — op in bits 7-6 (0 and 3 insert, 1
// delete, 2 contains), bit 5 repeats the batch to 3*minRunnerKeys keys or
// more so that it fans out over three goroutines (at most
// maxFanOutBatches times a tape), bits 4-0 the key count — then one byte
// per key, of which the low six bits name it. Tapes are cut at
// maxBatchTape bytes to keep every run short.
func FuzzBatchVsSequential(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < 2*len(batchFuzzGeometries); g++ {
		for i := 0; i < 3; i++ {
			tape := make([]byte, 64+rng.Intn(192))
			rng.Read(tape)
			f.Add(uint8(g), tape)
		}
	}
	f.Fuzz(func(t *testing.T, geom uint8, tape []byte) {
		cfg := batchFuzzGeometries[int(geom)%len(batchFuzzGeometries)]
		cfg.Seed = uint32(geom)
		if int(geom)/len(batchFuzzGeometries)%2 == 0 {
			cfg.Overflow = core.OverflowSaturate
		}
		batched, seq, empty := newFuzzSharded(t, cfg), newFuzzSharded(t, cfg), newFuzzSharded(t, cfg)
		var sc, chainSc BatchScratch
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
			idx, owner := shardOrder(seq, keys)
			switch h >> 6 {
			case 0, 3:
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
			case 1:
				gotOK, got := batched.DeleteBatch(keys, workers)
				wantOK := make([]bool, len(keys))
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
				if want := errors.Join(errs...); errText(got) != errText(want) {
					t.Fatalf("step %d: DeleteBatch error %q, key by key %q", step, errText(got), errText(want))
				}
				for k := range keys {
					if gotOK[k] != wantOK[k] {
						t.Fatalf("step %d: DeleteBatch flag %d = %v, key by key %v", step, k, gotOK[k], wantOK[k])
					}
				}
			case 2:
				got := batched.ContainsBatchInto(keys, &sc)
				chain := ContainsChainInto(2, func(i int) *Sharded { return []*Sharded{empty, batched}[i] }, keys, &chainSc)
				single := batched.shards[0].f.ContainsBatch(keys, nil)
				for k, key := range keys {
					want := seq.Contains(key)
					if got[k] != want || chain[k] != want {
						t.Fatalf("step %d: key %d: ContainsBatchInto %v, ContainsChainInto %v, Contains %v", step, k, got[k], chain[k], want)
					}
					if w := batched.shards[0].f.Contains(key); single[k] != w {
						t.Fatalf("step %d: key %d: MPCBF.ContainsBatch %v, Contains %v", step, k, single[k], w)
					}
				}
			}
			checkTwinSharded(t, fmt.Sprintf("step %d", step), batched, seq)
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
