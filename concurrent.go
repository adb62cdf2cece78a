package mpcbf

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
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
// shard number, and the filter's FillRatio, from one walk over the
// words. Counters are read atomically; the filter gauges take each
// shard's read lock briefly.
func (s *Sharded) ShardStats() (shards []ShardStats, fill float64) {
	shards = make([]ShardStats, len(s.shards))
	var used, capacity float64
	for i := range s.shards {
		sh := &s.shards[i]
		st := &shards[i]
		st.Inserts = sh.inserts.Load()
		st.Deletes = sh.deletes.Load()
		st.Queries = sh.queries.Load()
		sh.mu.RLock()
		st.Items = sh.f.Len()
		st.SaturatedWords = sh.f.SaturatedWords()
		u, c := sh.fill()
		sh.mu.RUnlock()
		if c > 0 {
			st.FillRatio = u / c
		}
		used += u
		capacity += c
	}
	if capacity == 0 {
		return shards, 0
	}
	return shards, used / capacity
}

// FillRatio returns the fraction of increment capacity consumed across
// every shard, weighted by shard size — a 0..1 load signal for operators.
// Each HCBF word always spends b1 structural bits on its first level;
// only the remaining w-b1 bits absorb increments, so the ratio counts
// those: 0 when empty, 1 when every word is full.
func (s *Sharded) FillRatio() float64 {
	var used, capacity float64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		u, c := sh.fill()
		sh.mu.RUnlock()
		used += u
		capacity += c
	}
	if capacity == 0 {
		return 0
	}
	return used / capacity
}

// fill returns the shard's increment bits in use, summed over its words,
// and their increment capacity (see FillRatio). The caller holds sh.mu.
func (sh *shard) fill() (used, capacity float64) {
	mean, _ := sh.f.FillStats()
	g := sh.f.Geometry()
	return (mean - float64(g.FirstLevelBits)) * float64(g.Words), float64(g.Words * (g.WordBits - g.FirstLevelBits))
}

// InsertBatch inserts keys. The batch is planned outside the shard locks
// on up to workers goroutines (0 means GOMAXPROCS; a batch smaller than
// minRunnerKeys per goroutine stays on the caller): every key is hashed
// to its shard, word and slots, and grouped by shard. The same goroutines
// then apply it shard by shard, each shard that owns keys taking its lock
// once and inserting them in batch order. Errors are joined; a shard stops
// at its first error, and successfully inserted keys stay inserted.
func (s *Sharded) InsertBatch(keys [][]byte, workers int) error {
	_, err := s.batchPooled(keys, opInsert, workers)
	return err
}

// InsertBatchInto is InsertBatch on up to GOMAXPROCS goroutines, planned
// in sc (nil: fresh scratch). With a warmed-up sc, a batch that stays on
// the calling goroutine allocates nothing unless a shard fails.
func (s *Sharded) InsertBatchInto(keys [][]byte, sc *BatchScratch) error {
	b := s.batchInto(keys, opInsert, sc, 0)
	return b.err()
}

// DeleteBatch removes keys, planned and applied like InsertBatch. Unlike
// InsertBatch it attempts every key even after a failure: deleting an
// absent key is a per-key condition, not a filter fault. It returns an
// order-preserving slice flagging which keys were actually removed plus
// the joined per-key errors, so callers that must know the durable
// outcome (the server's write-ahead log) can record exactly the deletes
// that happened.
func (s *Sharded) DeleteBatch(keys [][]byte, workers int) ([]bool, error) {
	return s.batchPooled(keys, opDelete, workers)
}

// DeleteBatchInto is DeleteBatch on up to GOMAXPROCS goroutines, planned
// in sc like InsertBatchInto; the returned flags belong to sc and are
// overwritten by its next use. Only a key it fails to remove allocates,
// for its error.
func (s *Sharded) DeleteBatchInto(keys [][]byte, sc *BatchScratch) ([]bool, error) {
	b := s.batchInto(keys, opDelete, sc, 0)
	return b.out, b.err()
}

// ContainsBatch answers membership for keys, preserving order, into a
// fresh slice. It is ContainsBatchInto in pooled scratch: batch reads
// run on the calling goroutine, so workers is ignored (it bounds only
// InsertBatch and DeleteBatch).
func (s *Sharded) ContainsBatch(keys [][]byte, workers int) []bool {
	out, _ := s.batchPooled(keys, opContains, 0)
	return out
}

// BatchScratch is reusable working memory for the batch ops of Sharded
// and Chain that take one (the Into forms): the plan of the last batch,
// its answers or delete flags, and a chain op's carried keys. The zero
// value is ready to use; a BatchScratch must not be shared between
// goroutines.
type BatchScratch struct {
	plan batchPlan
	out  []bool

	chain   []bool   // a chain op's answers
	pending []int    // batch indices a chain op still carries
	sub     [][]byte // their keys
}

// pooledScratch plans the batch ops that take no BatchScratch
// (InsertBatch, DeleteBatch, ContainsBatch), so that a bulk load of many
// batches does not allocate and fault in its working memory per batch.
var pooledScratch = sync.Pool{New: func() any { return new(BatchScratch) }}

// batchPooled applies op over keys in pooled scratch and returns a copy
// of its delete flags or answers, taken with its error before the scratch
// goes back to the pool.
func (s *Sharded) batchPooled(keys [][]byte, op batchOp, workers int) ([]bool, error) {
	sc := pooledScratch.Get().(*BatchScratch)
	defer pooledScratch.Put(sc)
	b := s.batchInto(keys, op, sc, workers)
	return slices.Clone(b.out), b.err()
}

// ContainsBatchInto answers membership for keys, preserving order, on
// the calling goroutine: the batch is planned and grouped by shard into
// sc, then each shard's read lock is taken once. The returned slice
// belongs to sc and is overwritten by its next use; with a warmed-up sc
// the call allocates nothing. A nil sc uses fresh scratch.
func (s *Sharded) ContainsBatchInto(keys [][]byte, sc *BatchScratch) []bool {
	return s.batchInto(keys, opContains, sc, 0).out
}

// minRunnerKeys is the smallest share of a batch worth a goroutine of its
// own: below it, starting and joining the goroutine costs more than the
// share's hashing and applying (measured in DESIGN.md §8, "Batch kernel").
// It is a variable only so that FuzzBatchVsSequential can fan small
// batches out.
var minRunnerKeys = 1024

type batchOp uint8

const (
	opInsert batchOp = iota
	opDelete
	opContains
)

// batch is one batch op on s in flight: its keys, their plan, and what
// applying them reports — per-key delete flags or answers in out, in
// batch order, and the shards' insert errors in errs (nil until one
// fails).
type batch struct {
	s    *Sharded
	keys [][]byte
	op   batchOp
	p    batchPlan
	out  []bool
	errs []error
}

// batchPlan is the working memory of a planned batch. Every key's plan
// is tagged with its batch index and grouped by shard with one stable
// counting sort, so shard i applies plans[end[i-1]:end[i]] (end[-1] = 0)
// in batch order.
type batchPlan struct {
	owner []int32 // owner[k]: shard of keys[k]
	plans []core.Plan
	ints  []int
	count []int // count[r*shards+i]: keys of runner r's share in shard i
	next  []int // next[r*shards+i]: where runner r places its next key of shard i
	end   []int
}

func (p *batchPlan) size(keys, shards, runners int) {
	p.owner = grow(p.owner, keys)
	p.plans = grow(p.plans, keys)
	rs := runners * shards
	p.ints = grow(p.ints, 2*rs+shards)
	p.count, p.next, p.end = p.ints[:rs], p.ints[rs:2*rs], p.ints[2*rs:]
}

// batchInto plans op over keys in sc (nil: fresh scratch) and applies
// it, returning the applied batch, whose out belongs to sc. Reads, and
// writes too small to give each of up to workers goroutines (0 means
// GOMAXPROCS) minRunnerKeys, run on the calling goroutine with the batch
// on its stack.
func (s *Sharded) batchInto(keys [][]byte, op batchOp, sc *BatchScratch, workers int) batch {
	if sc == nil {
		sc = new(BatchScratch)
	}
	b := batch{s: s, keys: keys, op: op, p: sc.plan}
	if op != opInsert {
		sc.out = grow(sc.out, len(keys))
		b.out = sc.out
	}
	r := 1
	if op != opContains && len(keys) >= 2*minRunnerKeys {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		r = min(len(keys)/minRunnerKeys, workers)
	}
	if r > 1 {
		b = b.parallel(r)
	} else {
		b.serial()
	}
	sc.plan = b.p
	return b
}

// parallel plans and applies b on r goroutines, the caller running one
// share, and returns it applied. Every runner hashes its contiguous
// share of the keys to shards, places their plans once all shares are
// counted, and then claims whole shards to apply until none is left.
func (b batch) parallel(r int) batch {
	b.s.ensureInit()
	b.p.size(len(b.keys), len(b.s.shards), r)
	if b.op == opInsert { // the runners' shards fail concurrently
		b.errs = make([]error, len(b.s.shards))
	}
	var (
		counted, placed, done sync.WaitGroup
		claimed               atomic.Int64 // shards claimed for applying so far
	)
	counted.Add(r)
	placed.Add(r)
	done.Add(r - 1)
	work := func(q int) {
		b.tally(q, r)
		counted.Done()
		counted.Wait()
		b.place(q, r)
		placed.Done()
		placed.Wait()
		for i := int(claimed.Add(1)) - 1; i < len(b.s.shards); i = int(claimed.Add(1)) - 1 {
			b.apply(i)
		}
	}
	for q := 1; q < r; q++ {
		go func() {
			defer done.Done()
			work(q)
		}()
	}
	work(0)
	done.Wait()
	return b
}

// serial plans and applies b on the calling goroutine.
func (b *batch) serial() {
	b.s.ensureInit()
	b.p.size(len(b.keys), len(b.s.shards), 1)
	b.tally(0, 1)
	b.place(0, 1)
	for i := range b.s.shards {
		b.apply(i)
	}
}

// err reports what an applied batch failed: the shards' insert errors,
// or one error per key a delete did not remove, shard by shard in batch
// order.
func (b *batch) err() error {
	if b.op != opDelete || !slices.Contains(b.out, false) {
		return errors.Join(b.errs...)
	}
	var errs []error
	for i := range b.s.shards {
		for _, p := range b.shardPlans(i) {
			if !b.out[p.Tag] {
				errs = append(errs, fmt.Errorf("mpcbf: shard %d key %d: %w", i, p.Tag, core.ErrUnderflow))
			}
		}
	}
	return errors.Join(errs...)
}

// share returns the bounds of runner r's share of n keys.
func share(r, runners, n int) (lo, hi int) {
	return r * n / runners, (r + 1) * n / runners
}

// tally hashes runner r's share of the keys to their shards and counts
// them per shard.
func (b *batch) tally(r, runners int) {
	n := len(b.s.shards)
	count := b.p.count[r*n : (r+1)*n]
	clear(count)
	lo, hi := share(r, runners, len(b.keys))
	for k := lo; k < hi; k++ {
		o := b.s.pick.NewIndexStream(b.keys[k]).Word(0, n)
		b.p.owner[k] = int32(o)
		count[o]++
	}
}

// place plans runner r's share of the keys into their shards' ranges
// once every share is counted: shard i's range starts after the shards
// before it, and runner r's keys of shard i after those of the runners
// before r, so each shard's plans stay in batch order.
func (b *batch) place(r, runners int) {
	n, p := len(b.s.shards), &b.p
	next := p.next[r*n : (r+1)*n]
	at := 0
	for i := range next {
		next[i] = at
		for q := 0; q < runners; q++ {
			if q < r {
				next[i] += p.count[q*n+i]
			}
			at += p.count[q*n+i]
		}
		if r == 0 {
			p.end[i] = at
		}
	}
	lo, hi := share(r, runners, len(b.keys))
	for k := lo; k < hi; k++ {
		o := p.owner[k]
		p.plans[next[o]] = b.s.shards[o].f.f.Plan(b.keys[k], k)
		next[o]++
	}
}

// shardPlans returns shard i's plans, in batch order.
func (b *batch) shardPlans(i int) []core.Plan {
	lo := 0
	if i > 0 {
		lo = b.p.end[i-1]
	}
	return b.p.plans[lo:b.p.end[i]]
}

// apply applies shard i's plans under its lock, once.
func (b *batch) apply(i int) {
	ps := b.shardPlans(i)
	if len(ps) == 0 {
		return
	}
	sh := &b.s.shards[i]
	f := sh.f.f
	switch b.op {
	case opInsert:
		sh.inserts.Add(uint64(len(ps)))
		sh.mu.Lock()
		n, err := f.InsertPlans(ps, b.keys)
		sh.mu.Unlock()
		b.s.count.Add(int64(n))
		if err != nil {
			if b.errs == nil { // a serial batch's first failure
				b.errs = make([]error, len(b.s.shards))
			}
			b.errs[i] = fmt.Errorf("mpcbf: shard %d: %w", i, err)
		}
	case opDelete:
		sh.deletes.Add(uint64(len(ps)))
		sh.mu.Lock()
		n := f.DeletePlans(ps, b.keys, b.out)
		sh.mu.Unlock()
		b.s.count.Add(-int64(n))
	case opContains:
		sh.queries.Add(uint64(len(ps)))
		sh.mu.RLock()
		f.ContainsPlans(ps, b.keys, b.out)
		sh.mu.RUnlock()
	}
}

// grow returns b resized to n elements, reusing its array when it fits.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
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
