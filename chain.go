package mpcbf

import (
	"slices"
	"sync"
)

// Chain is a sequence of Sharded generations, oldest first, that reads,
// deletes and counts as one filter — the structure a sliding window and
// an elastic filter share (Dynamic Partition Bloom Filters, arXiv:
// 1901.06493, model both as partitions added and retired over time).
// Inserts go to the newest generation, the head. A key is present when
// any generation holds it, and generations are probed newest first, so
// recent keys answer after one probe. A delete goes to the newest
// generation where it succeeds; trying one generation after another is
// sound because a delete that fails changes nothing.
//
// What differs between window and elastic is when a generation is added,
// retired or reordered. They do that through Update, and read their own
// per-generation state through View.
//
// Every method takes the chain's read lock only, so reads, inserts and
// deletes run side by side under the generations' own shard locks; only
// Update excludes them. The zero Chain has no generations: it reads every
// key as absent, and Insert and InsertBatch, which need a head, must not
// be called on it.
type Chain struct {
	mu     sync.RWMutex
	gens   []*Sharded
	absent error // what Delete returns when no generation holds the key
}

// NewChain returns a chain of gens, oldest first, whose Delete returns
// absent for a key that no generation holds.
func NewChain(absent error, gens ...*Sharded) *Chain {
	return &Chain{gens: gens, absent: absent}
}

// View calls fn with the generations, oldest first, under the chain's
// read lock. fn must not keep or modify the slice, nor call c's methods,
// which would take the lock again.
func (c *Chain) View(fn func(gens []*Sharded)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn(c.gens)
}

// Update calls fn with the generations, oldest first, under the chain's
// write lock, and installs the slice it returns, which must not be empty.
// fn must not call c's methods. Update belongs to the policy that owns
// the chain, whose own state changes with the chain's shape.
func (c *Chain) Update(fn func(gens []*Sharded) []*Sharded) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens = fn(c.gens)
}

// ReleaseArenas hands the arena words of every generation to put (see
// Sharded.ReleaseArenas). c must not be used again.
func (c *Chain) ReleaseArenas(put func(words []uint64)) {
	c.View(func(gens []*Sharded) {
		for _, g := range gens {
			g.ReleaseArenas(put)
		}
	})
}

// Generations returns the chain's length.
func (c *Chain) Generations() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.gens)
}

// head returns the newest generation; callers hold c.mu.
func (c *Chain) head() *Sharded { return c.gens[len(c.gens)-1] }

// Insert adds key to the newest generation.
func (c *Chain) Insert(key []byte) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head().Insert(key)
}

// InsertBatch adds keys to the newest generation (Sharded.InsertBatch).
func (c *Chain) InsertBatch(keys [][]byte, workers int) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head().InsertBatch(keys, workers)
}

// InsertBatchInto adds keys to the newest generation, planned in sc
// (Sharded.InsertBatchInto).
func (c *Chain) InsertBatchInto(keys [][]byte, sc *BatchScratch) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head().InsertBatchInto(keys, sc)
}

// Contains reports whether any generation may hold key.
func (c *Chain) Contains(key []byte) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := len(c.gens) - 1; i >= 0; i-- {
		if c.gens[i].Contains(key) {
			return true
		}
	}
	return false
}

// ContainsBatchInto answers membership for keys, preserving order, on the
// calling goroutine. Only keys no newer generation holds carry over to
// the next older one, so a batch of recent keys costs one pass. The
// result belongs to sc, as for Sharded.ContainsBatchInto; a nil sc uses
// fresh scratch.
func (c *Chain) ContainsBatchInto(keys [][]byte, sc *BatchScratch) []bool {
	if sc == nil {
		sc = new(BatchScratch)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.carry(keys, sc, opContains, 0)
}

// Delete removes key from the newest generation where the delete
// succeeds, and returns the chain's absent error when none does.
func (c *Chain) Delete(key []byte) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := len(c.gens) - 1; i >= 0; i-- {
		if c.gens[i].Delete(key) == nil {
			return nil
		}
	}
	return c.absent
}

// DeleteBatch deletes keys as Delete would one after another, and
// returns order-preserving flags for the keys it removed: one
// Sharded.DeleteBatch per generation, newest first, over the keys no
// newer generation removed. A key no generation removes reads false; it
// is not an error, so the error is always nil. It plans in pooled
// scratch, as Sharded.DeleteBatch does, so it allocates only the flags.
func (c *Chain) DeleteBatch(keys [][]byte, workers int) ([]bool, error) {
	sc := pooledScratch.Get().(*BatchScratch)
	defer pooledScratch.Put(sc)
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Clone(c.carry(keys, sc, opDelete, workers)), nil
}

// DeleteBatchInto is DeleteBatch in sc, as Sharded.DeleteBatchInto: the
// flags belong to sc, and with a warmed-up sc the call allocates
// nothing. A nil sc uses fresh scratch.
func (c *Chain) DeleteBatchInto(keys [][]byte, sc *BatchScratch) ([]bool, error) {
	if sc == nil {
		sc = new(BatchScratch)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.carry(keys, sc, opDelete, 0), nil
}

// carry runs op over the generations newest first, each generation
// taking only the keys that no newer one resolved, and returns whether
// some generation resolved each key: held it for opContains, removed it
// for opDelete. The answers and carried keys live in sc; a generation's
// failed deletes build no errors. Callers hold c.mu.
func (c *Chain) carry(keys [][]byte, sc *BatchScratch, op batchOp, workers int) []bool {
	out := grow(sc.chain, len(keys))
	clear(out)
	pending := grow(sc.pending, len(keys))
	for i := range pending {
		pending[i] = i
	}
	sub := append(sc.sub[:0], keys...)
	sc.chain, sc.pending, sc.sub = out, pending, sub
	for i := len(c.gens) - 1; i >= 0 && len(sub) > 0; i-- {
		hit := c.gens[i].batchInto(sub, op, sc, workers).out
		m := 0
		for j, ok := range hit {
			if ok {
				out[pending[j]] = true
			} else {
				pending[m], sub[m] = pending[j], sub[j]
				m++
			}
		}
		pending, sub = pending[:m], sub[:m]
	}
	clear(sc.sub) // hold no references to the caller's keys
	return out
}

// sum adds up n over the generations.
func (c *Chain) sum(n func(*Sharded) int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, g := range c.gens {
		total += n(g)
	}
	return total
}

// EstimateCount returns an upper bound on key's multiplicity: the sum of
// the generations' estimates, since a key inserted again after a new
// generation took over counts in both.
func (c *Chain) EstimateCount(key []byte) int {
	return c.sum(func(g *Sharded) int { return g.EstimateCount(key) })
}

// Len returns the element count across the generations.
func (c *Chain) Len() int { return c.sum((*Sharded).Len) }

// MemoryBits returns the footprint of every generation together.
func (c *Chain) MemoryBits() int { return c.sum((*Sharded).MemoryBits) }

// SaturatedWords sums the overflow-frozen words of every generation.
func (c *Chain) SaturatedWords() int { return c.sum((*Sharded).SaturatedWords) }

var _ CountingFilter = (*Chain)(nil)
