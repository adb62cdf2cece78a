package mpcbf

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hashing"
)

// Sharded is a thread-safe MPCBF for concurrent packet-processing
// pipelines: the key space is split over independent shards, each an
// MPCBF guarded by its own read-write lock, so queries from different
// goroutines proceed in parallel and updates contend only within a shard.
//
// The aggregate geometry matches a single MPCBF of the same total memory:
// each shard receives MemoryBits/shards and ExpectedItems/shards, so the
// false positive rate is unchanged while lock contention drops by the
// shard factor.
type Sharded struct {
	shards []shard
	pick   hashing.Hasher
	seed   uint32
	count  atomic.Int64
}

type shard struct {
	mu sync.RWMutex
	f  *MPCBF

	// Per-shard op counters for hot-shard detection: a skewed key space
	// shows up as one shard's counters running ahead of the rest long
	// before its fill ratio does. Atomics, so reads never take the lock.
	inserts atomic.Uint64
	deletes atomic.Uint64
	queries atomic.Uint64 // Contains + EstimateCount
}

// NewSharded builds a sharded filter from o with the given shard count
// (rounded up to 1). Each shard must still hold at least one word.
func NewSharded(o Options, shards int) (*Sharded, error) {
	if shards < 1 {
		shards = 1
	}
	per := o
	per.MemoryBits = o.MemoryBits / shards
	per.ExpectedItems = (o.ExpectedItems + shards - 1) / shards
	s := &Sharded{
		shards: make([]shard, shards),
		pick:   pickHasher(o.Seed),
		seed:   o.Seed,
	}
	for i := range s.shards {
		// Distinct per-shard hash families avoid correlated word choices.
		cfg := per
		cfg.Seed = o.Seed + uint32(i)*0x9e3779b9
		f, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("mpcbf: shard %d: %w", i, err)
		}
		s.shards[i].f = f
	}
	return s, nil
}

// pickHasher derives the shard-selection hash family from the options
// seed: a distinct stream keeps it independent of the in-filter hashes.
func pickHasher(seed uint32) hashing.Hasher {
	return hashing.NewHasher(seed ^ 0x5bd1e995)
}

// ensureInit catches use of a Sharded that was not built by NewSharded.
// The zero value has no shards and no hash family, so without this check
// the first operation dies as an opaque divide-by-zero inside the shard
// picker; a clear panic names the actual mistake. Read-only aggregates
// (Len, MemoryBits, FillRatio, ShardStats, ...) stay safe on the zero
// value — they range over the empty shard slice and report emptiness.
func (s *Sharded) ensureInit() {
	if len(s.shards) == 0 {
		panic("mpcbf: Sharded used before NewSharded (the zero value holds no shards)")
	}
}

func (s *Sharded) shardOf(key []byte) *shard {
	s.ensureInit()
	idx := s.pick.NewIndexStream(key).Word(0, len(s.shards))
	return &s.shards[idx]
}

// Insert adds key. Safe for concurrent use.
func (s *Sharded) Insert(key []byte) error {
	sh := s.shardOf(key)
	sh.inserts.Add(1)
	sh.mu.Lock()
	err := sh.f.Insert(key)
	sh.mu.Unlock()
	if err == nil {
		s.count.Add(1)
	}
	return err
}

// Delete removes key. Safe for concurrent use. The element count only
// moves when the underlying delete succeeds, so failed deletes of absent
// keys cannot drift it downward.
func (s *Sharded) Delete(key []byte) error {
	sh := s.shardOf(key)
	sh.deletes.Add(1)
	sh.mu.Lock()
	err := sh.f.Delete(key)
	sh.mu.Unlock()
	if err == nil {
		s.count.Add(-1)
	}
	return err
}

// Contains reports whether key may be in the set. Concurrent queries to
// the same shard proceed in parallel (read lock).
func (s *Sharded) Contains(key []byte) bool {
	sh := s.shardOf(key)
	sh.queries.Add(1)
	sh.mu.RLock()
	ok := sh.f.Contains(key)
	sh.mu.RUnlock()
	return ok
}

// EstimateCount returns an upper bound on key's multiplicity.
func (s *Sharded) EstimateCount(key []byte) int {
	sh := s.shardOf(key)
	sh.queries.Add(1)
	sh.mu.RLock()
	n := sh.f.EstimateCount(key)
	sh.mu.RUnlock()
	return n
}

// Len returns the current number of elements.
func (s *Sharded) Len() int { return int(s.count.Load()) }

// MemoryBits returns the aggregate footprint.
func (s *Sharded) MemoryBits() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].f.MemoryBits()
	}
	return total
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Seed returns the construction seed that selects the shard and in-filter
// hash families.
func (s *Sharded) Seed() uint32 { return s.seed }

// SaturatedWords returns how many words across all shards were frozen as
// always-positive by the graceful overflow policy.
func (s *Sharded) SaturatedWords() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += sh.f.SaturatedWords()
		sh.mu.RUnlock()
	}
	return total
}

// ShardStats is a point-in-time view of one shard, for hot-shard
// detection: op counters expose load skew, fill ratio and saturation
// expose capacity skew.
type ShardStats struct {
	Items          int     `json:"items"`
	FillRatio      float64 `json:"fill_ratio"`
	SaturatedWords int     `json:"saturated_words"`
	Inserts        uint64  `json:"inserts"`
	Deletes        uint64  `json:"deletes"`
	Queries        uint64  `json:"queries"`
}

// ShardStats returns per-shard load and capacity statistics, indexed by
// shard number. Counters are read atomically; the filter gauges take
// each shard's read lock briefly.
func (s *Sharded) ShardStats() []ShardStats {
	out := make([]ShardStats, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		st := &out[i]
		st.Inserts = sh.inserts.Load()
		st.Deletes = sh.deletes.Load()
		st.Queries = sh.queries.Load()
		sh.mu.RLock()
		st.Items = sh.f.Len()
		st.SaturatedWords = sh.f.SaturatedWords()
		mean, _ := sh.f.FillStats()
		g := sh.f.Geometry()
		sh.mu.RUnlock()
		if denom := float64(g.WordBits - g.FirstLevelBits); denom > 0 {
			st.FillRatio = (mean - float64(g.FirstLevelBits)) / denom
		}
	}
	return out
}

// FillRatio returns the fraction of increment capacity consumed across
// every shard, weighted by shard size — a 0..1 load signal for operators.
// Each HCBF word always spends b1 structural bits on its first level;
// only the remaining w-b1 bits absorb increments, so the ratio counts
// those: 0 when empty, 1 when every word is full.
func (s *Sharded) FillRatio() float64 {
	usedBits, totalBits := 0.0, 0.0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		mean, _ := sh.f.FillStats()
		g := sh.f.Geometry()
		sh.mu.RUnlock()
		usedBits += (mean - float64(g.FirstLevelBits)) * float64(g.Words)
		totalBits += float64(g.Words * (g.WordBits - g.FirstLevelBits))
	}
	if totalBits == 0 {
		return 0
	}
	return usedBits / totalBits
}

// InsertBatch inserts keys in parallel: keys are grouped by shard and the
// shard groups are processed concurrently (bounded by workers; 0 means one
// goroutine per shard), so each shard's lock is taken once per batch
// instead of once per key. Errors are joined; successfully inserted keys
// stay inserted.
func (s *Sharded) InsertBatch(keys [][]byte, workers int) error {
	var g batchGroups
	g.group(s, keys)
	errs := make([]error, len(s.shards))
	s.parallel(workers, func(i int) {
		idx := g.shard(i)
		if len(idx) == 0 {
			return
		}
		sh := &s.shards[i]
		sh.inserts.Add(uint64(len(idx)))
		sh.mu.Lock()
		defer sh.mu.Unlock()
		inserted := int64(0)
		for _, ki := range idx {
			if err := sh.f.Insert(keys[ki]); err != nil {
				errs[i] = fmt.Errorf("mpcbf: shard %d: %w", i, err)
				break
			}
			inserted++
		}
		s.count.Add(inserted)
	})
	return errors.Join(errs...)
}

// DeleteBatch removes keys in parallel with the same shard-grouped locking
// as InsertBatch. Unlike InsertBatch it attempts every key even after a
// failure: deleting an absent key is a per-key condition, not a filter
// fault. It returns an order-preserving slice flagging which keys were
// actually removed plus the joined per-key errors, so callers that must
// know the durable outcome (the server's write-ahead log) can record
// exactly the deletes that happened.
func (s *Sharded) DeleteBatch(keys [][]byte, workers int) ([]bool, error) {
	var g batchGroups
	g.group(s, keys)
	ok := make([]bool, len(keys))
	errs := make([]error, len(s.shards))
	s.parallel(workers, func(i int) {
		idx := g.shard(i)
		if len(idx) == 0 {
			return
		}
		sh := &s.shards[i]
		sh.deletes.Add(uint64(len(idx)))
		sh.mu.Lock()
		defer sh.mu.Unlock()
		deleted := int64(0)
		var shardErrs []error
		for _, ki := range idx {
			if err := sh.f.Delete(keys[ki]); err != nil {
				shardErrs = append(shardErrs, fmt.Errorf("mpcbf: shard %d key %d: %w", i, ki, err))
				continue
			}
			ok[ki] = true
			deleted++
		}
		errs[i] = errors.Join(shardErrs...)
		s.count.Add(-deleted)
	})
	return ok, errors.Join(errs...)
}

// ContainsBatch answers membership for keys, preserving order, into a
// fresh slice. It is ContainsBatchInto with fresh scratch: batch reads
// run on the calling goroutine, so workers is ignored (it bounds only
// InsertBatch and DeleteBatch).
func (s *Sharded) ContainsBatch(keys [][]byte, workers int) []bool {
	return s.ContainsBatchInto(keys, nil)
}

// BatchScratch is reusable working memory for ContainsBatchInto and
// ContainsChainInto: the shard grouping of the last batch, its answers,
// and a chain read's carried keys. The zero value is ready to use; a
// BatchScratch must not be shared between goroutines.
type BatchScratch struct {
	groups batchGroups
	out    []bool

	chain   []bool   // ContainsChainInto's answers
	pending []int    // batch indices a chain read still carries
	sub     [][]byte // their keys
}

// ContainsBatchInto answers membership for keys, preserving order, on
// the calling goroutine: keys are grouped by shard into sc and each
// shard's read lock is taken once. The returned slice belongs to sc and
// is overwritten by its next use; with a warmed-up sc the call allocates
// nothing. A nil sc uses fresh scratch.
func (s *Sharded) ContainsBatchInto(keys [][]byte, sc *BatchScratch) []bool {
	if sc == nil {
		sc = new(BatchScratch)
	}
	sc.groups.group(s, keys)
	out := grow(sc.out, len(keys))
	sc.out = out
	for i := range s.shards {
		idx := sc.groups.shard(i)
		if len(idx) == 0 {
			continue
		}
		sh := &s.shards[i]
		sh.queries.Add(uint64(len(idx)))
		sh.mu.RLock()
		for _, ki := range idx {
			out[ki] = sh.f.Contains(keys[ki])
		}
		sh.mu.RUnlock()
	}
	return out
}

// ContainsChainInto answers membership for keys, preserving order,
// against a chain of n filters probed gen(0) first: a key is present
// when any filter holds it, and only keys not yet found carry over to
// the next filter, so a batch of recent keys costs one pass over a
// newest-first chain. Windowed and elastic filters read through it. The
// result belongs to sc, as for ContainsBatchInto.
func ContainsChainInto(n int, gen func(i int) *Sharded, keys [][]byte, sc *BatchScratch) []bool {
	if sc == nil {
		sc = new(BatchScratch)
	}
	out := grow(sc.chain, len(keys))
	clear(out)
	pending := grow(sc.pending, len(keys))
	for i := range pending {
		pending[i] = i
	}
	sub := append(sc.sub[:0], keys...)
	sc.chain, sc.pending, sc.sub = out, pending, sub
	for i := 0; i < n && len(sub) > 0; i++ {
		m := 0
		for j, ok := range gen(i).ContainsBatchInto(sub, sc) {
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

// batchGroups is a batch grouped by owning shard with one stable
// counting sort: shard i owns keys[idx[end[i-1]:end[i]]] (end[-1] = 0),
// in batch order, so per-shard application order matches the batch.
type batchGroups struct {
	owner []int // owner[k]: shard of keys[k]
	idx   []int
	end   []int
}

func (g *batchGroups) group(s *Sharded, keys [][]byte) {
	s.ensureInit()
	n := len(s.shards)
	g.owner = grow(g.owner, len(keys))
	g.idx = grow(g.idx, len(keys))
	g.end = grow(g.end, n)
	clear(g.end)
	for k, key := range keys {
		o := s.pick.NewIndexStream(key).Word(0, n)
		g.owner[k] = o
		g.end[o]++
	}
	// end[i] becomes the start of shard i, then advances to its end as
	// the shard's keys are placed.
	at := 0
	for i, c := range g.end {
		g.end[i] = at
		at += c
	}
	for k, o := range g.owner {
		g.idx[g.end[o]] = k
		g.end[o]++
	}
}

// shard returns the indices of shard i's keys.
func (g *batchGroups) shard(i int) []int {
	lo := 0
	if i > 0 {
		lo = g.end[i-1]
	}
	return g.idx[lo:g.end[i]]
}

// grow returns b resized to n elements, reusing its array when it fits.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// parallel runs fn(i) for every shard index with bounded concurrency.
func (s *Sharded) parallel(workers int, fn func(i int)) {
	if workers <= 0 || workers > len(s.shards) {
		workers = len(s.shards)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Reset clears every shard.
func (s *Sharded) Reset() {
	for i := range s.shards {
		s.shards[i].mu.Lock()
		s.shards[i].f.Reset()
		s.shards[i].mu.Unlock()
	}
	s.count.Store(0)
}

var _ CountingFilter = (*Sharded)(nil)
