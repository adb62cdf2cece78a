// Package window implements time-decaying sliding-window membership
// over the sharded MPCBF: a ring of G generation filters with a
// rotation clock.
//
// Counting Bloom filters exist to support deletion, and the canonical
// deletion workload at production scale is time-windowed membership
// (flow monitoring, recent-duplicate suppression, rate-limit keys):
// old items must age out continuously or the accumulating load destroys
// the false-positive rate the sizing analysis (Eq. 11) assumes. The
// window layer keeps each generation in that design load regime and
// retires an entire expired generation in O(1) — one Reset — instead
// of replaying per-key deletes.
//
// # Semantics
//
// Inserts go to the head generation. Contains ORs membership across all
// G generations, using the per-generation batch fast paths. Every
// Span/G the ring rotates: the oldest generation is cleared and becomes
// the new head. A key inserted with the full span therefore survives at
// least Span - Span/G and at most Span; the staleness bound — how long
// an expired key may linger — is one rotation period, Span/G.
//
// InsertTTL places a key by its time-to-live: a TTL shorter than the
// span goes into an older ring slot so it retires after
// ceil(ttl/(Span/G))+1 rotations instead of G. TTL granularity is the
// rotation period.
//
// # Precise mode
//
// Options.Precise additionally tracks every TTL insert in an expiry
// heap and deletes the key from its generation (the counting filter's
// Delete) when the TTL elapses, instead of waiting for the generation
// to retire. Generation rotation still runs as a backstop that bounds
// memory and staleness even if sweeps fall behind. A delete is skipped
// when the key's generation has already been retired (tracked by a
// per-slot epoch), so a sweep never corrupts a fresh generation.
package window

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	mpcbf "repro"
)

// Options configures New.
type Options struct {
	// Span is the total window length (required, positive).
	Span time.Duration
	// Generations is the ring size G (default 4). The ring rotates every
	// Span/G; larger G tightens the staleness bound and smooths load at
	// the cost of G membership probes per query.
	Generations int
	// Filter is the per-generation MPCBF geometry. Each generation gets
	// the full MemoryBits budget, so the window's total footprint is
	// Generations × MemoryBits. Size ExpectedItems for one rotation
	// period's insert volume times G/(G-1) headroom.
	Filter mpcbf.Options
	// Shards is the per-generation shard count (default 16).
	Shards int
	// Precise enables per-key TTL deletes via the expiry heap.
	Precise bool
}

func (o *Options) setDefaults() error {
	if o.Span <= 0 {
		return errors.New("window: Span must be positive")
	}
	if o.Generations <= 0 {
		o.Generations = 4
	}
	if o.Shards <= 0 {
		o.Shards = 16
	}
	return nil
}

// Filter is a sliding-window membership structure: a ring of G
// generation filters plus, in precise mode, an expiry heap. Safe for
// concurrent use: queries and inserts take a read lock on the ring
// structure (each generation has its own internal locks); only Rotate
// and the precise-mode sweep take the write lock.
type Filter struct {
	opts        Options
	rotateEvery time.Duration

	mu        sync.RWMutex
	gens      []*mpcbf.Sharded
	head      int      // ring index of the current insert target
	epochs    []uint64 // bumped when a slot is retired; guards precise deletes
	rotations uint64

	exp expiryHeap // precise mode only
}

// New builds an empty window. Each generation is an independent Sharded
// MPCBF with a distinct derived hash seed, so correlated word choices
// across generations cannot compound false positives.
func New(opts Options) (*Filter, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	f := &Filter{
		opts:        opts,
		rotateEvery: opts.Span / time.Duration(opts.Generations),
		gens:        make([]*mpcbf.Sharded, opts.Generations),
		epochs:      make([]uint64, opts.Generations),
	}
	for i := range f.gens {
		cfg := opts.Filter
		cfg.Seed = opts.Filter.Seed + uint32(i)*0x01000193
		g, err := mpcbf.NewSharded(cfg, opts.Shards)
		if err != nil {
			return nil, fmt.Errorf("window: generation %d: %w", i, err)
		}
		f.gens[i] = g
	}
	return f, nil
}

// Span returns the configured window length.
func (f *Filter) Span() time.Duration { return f.opts.Span }

// RotateEvery returns the rotation period, Span/Generations — the
// staleness bound.
func (f *Filter) RotateEvery() time.Duration { return f.rotateEvery }

// Generations returns the ring size G.
func (f *Filter) Generations() int { return len(f.gens) }

// Rotations returns the number of rotations performed since creation
// (or since the marshaled state this Filter was restored from).
func (f *Filter) Rotations() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.rotations
}

// Head returns the ring index of the current insert generation.
func (f *Filter) Head() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.head
}

// RotationsFor maps a TTL to the number of future rotations the key
// must survive, in [1, G]. The ring guarantees a key surviving r
// rotations lives at least (r-1) rotation periods from insert, so the
// mapping rounds the TTL up to the next rotation boundary and adds one.
func (f *Filter) RotationsFor(ttl time.Duration) int {
	g := len(f.gens)
	if ttl <= 0 {
		return 1
	}
	r := int((ttl+f.rotateEvery-1)/f.rotateEvery) + 1
	if r > g {
		r = g
	}
	return r
}

// slotFor returns the ring slot retired exactly r rotations from now;
// callers hold f.mu (read or write). r = G is the head itself.
func (f *Filter) slotFor(r int) int {
	return (f.head + r) % len(f.gens)
}

// Insert adds key with the full window span (the head generation).
func (f *Filter) Insert(key []byte) error {
	return f.InsertRotations(key, len(f.gens))
}

// InsertTTL adds key so it expires no earlier than ttl from now and no
// later than the window span. In precise mode the key is additionally
// deleted from its generation when the TTL elapses (see ExpireDue).
func (f *Filter) InsertTTL(key []byte, ttl time.Duration) error {
	r := f.RotationsFor(ttl)
	if !f.opts.Precise {
		return f.InsertRotations(key, r)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	slot := f.slotFor(r)
	if err := f.gens[slot].Insert(key); err != nil {
		return err
	}
	f.exp.push(&expiry{
		at:    time.Now().Add(ttl).UnixNano(),
		key:   append([]byte(nil), key...),
		slot:  slot,
		epoch: f.epochs[slot],
	})
	return nil
}

// InsertRotations adds key into the generation retired exactly r
// rotations from now (r clamped to [1, G]). This is the deterministic
// core of TTL placement: the serving layer's WAL records rotation
// counts, not wall-clock TTLs, so crash recovery and replication
// reconstruct the exact ring contents.
func (f *Filter) InsertRotations(key []byte, r int) error {
	r = f.clampRotations(r)
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.gens[f.slotFor(r)].Insert(key)
}

// InsertBatch adds keys with the full window span, one locked pass per
// shard of the head generation.
func (f *Filter) InsertBatch(keys [][]byte) error {
	return f.InsertRotationsBatch(keys, len(f.gens))
}

// InsertRotationsBatch adds keys into the generation retired exactly r
// rotations from now, taking each of its shard locks once
// (mpcbf.Sharded.InsertBatch).
func (f *Filter) InsertRotationsBatch(keys [][]byte, r int) error {
	r = f.clampRotations(r)
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.gens[f.slotFor(r)].InsertBatch(keys, 0)
}

func (f *Filter) clampRotations(r int) int {
	if r < 1 {
		return 1
	}
	if r > len(f.gens) {
		return len(f.gens)
	}
	return r
}

// Contains reports whether key may be in the window: an OR across the
// live generations, newest first (recent keys answer after one probe).
func (f *Filter) Contains(key []byte) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	g := len(f.gens)
	for i := 0; i < g; i++ {
		if f.gens[(f.head-i+g*2)%g].Contains(key) {
			return true
		}
	}
	return false
}

// ContainsBatch answers membership for keys, order-preserving, into a
// fresh slice (ContainsBatchInto with fresh scratch).
func (f *Filter) ContainsBatch(keys [][]byte) []bool {
	return f.ContainsBatchInto(keys, nil)
}

// ContainsBatchInto answers membership for keys, order-preserving, on
// the calling goroutine. Generations are probed newest first, and only
// keys still unresolved carry over to the next (older) one, so the
// common all-recent batch costs one generation pass. The result belongs
// to sc (see mpcbf.ContainsChainInto).
func (f *Filter) ContainsBatchInto(keys [][]byte, sc *mpcbf.BatchScratch) []bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	g := len(f.gens)
	return mpcbf.ContainsChainInto(g, func(i int) *mpcbf.Sharded { return f.gens[(f.head-i+g*2)%g] }, keys, sc)
}

// Delete removes key from the newest generation that reports it,
// scanning newest to oldest. Deleting a key absent from every
// generation returns an error (and changes nothing).
func (f *Filter) Delete(key []byte) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.deleteLocked(key)
}

func (f *Filter) deleteLocked(key []byte) error {
	g := len(f.gens)
	var firstErr error
	for i := 0; i < g; i++ {
		gen := f.gens[(f.head-i+g*2)%g]
		if !gen.Contains(key) {
			continue
		}
		if err := gen.Delete(key); err == nil {
			return nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return errors.New("window: delete of key absent from every generation")
}

// DeleteBatch removes keys, returning order-preserving flags for which
// keys were actually removed.
func (f *Filter) DeleteBatch(keys [][]byte) ([]bool, error) {
	ok := make([]bool, len(keys))
	f.mu.RLock()
	defer f.mu.RUnlock()
	var errs []error
	for i, k := range keys {
		if err := f.deleteLocked(k); err == nil {
			ok[i] = true
		} else {
			errs = append(errs, fmt.Errorf("window: key %d: %w", i, err))
		}
	}
	return ok, errors.Join(errs...)
}

// EstimateCount returns an upper bound on key's multiplicity across the
// window: the sum of per-generation estimates (a key re-inserted after
// a rotation legitimately counts in both generations).
func (f *Filter) EstimateCount(key []byte) int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	total := 0
	for _, g := range f.gens {
		total += g.EstimateCount(key)
	}
	return total
}

// Len returns the number of elements across all live generations.
func (f *Filter) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	total := 0
	for _, g := range f.gens {
		total += g.Len()
	}
	return total
}

// MemoryBits returns the aggregate footprint: Generations × per-filter
// memory.
func (f *Filter) MemoryBits() int {
	total := 0
	for _, g := range f.gens {
		total += g.MemoryBits()
	}
	return total
}

// Rotate retires the oldest generation in O(1): its counters are reset
// and it becomes the new head. With G = 1 a rotation clears the whole
// window — the degenerate single-generation configuration where every
// key lives at most one span.
func (f *Filter) Rotate() {
	f.mu.Lock()
	defer f.mu.Unlock()
	tail := (f.head + 1) % len(f.gens)
	f.gens[tail].Reset()
	f.epochs[tail]++
	f.head = tail
	f.rotations++
}

// ExpireDue deletes every precise-mode TTL entry due at or before now
// and returns how many keys it removed. Entries whose generation was
// already retired are dropped without touching the filter (the Reset
// removed them wholesale). No-op when Precise is off.
func (f *Filter) ExpireDue(now time.Time) int {
	if !f.opts.Precise {
		return 0
	}
	nowNs := now.UnixNano()
	f.mu.Lock()
	defer f.mu.Unlock()
	removed := 0
	for {
		e := f.exp.peek()
		if e == nil || e.at > nowNs {
			return removed
		}
		heap.Pop(&f.exp)
		if f.epochs[e.slot] != e.epoch {
			continue // generation already retired; nothing to delete
		}
		if err := f.gens[e.slot].Delete(e.key); err == nil {
			removed++
		}
	}
}

// PendingExpiries returns the precise-mode heap size (0 when Precise is
// off) — an operator signal that sweeps are keeping up.
func (f *Filter) PendingExpiries() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.exp.Len()
}

// Run drives the window clock until ctx is done: a rotation every
// Span/Generations and, in precise mode, an expiry sweep at one eighth
// of that period. Standalone library use only — the serving layer runs
// its own clock so rotations flow through the write-ahead log.
func (f *Filter) Run(ctx context.Context) {
	rot := time.NewTicker(f.rotateEvery)
	defer rot.Stop()
	var sweep <-chan time.Time
	if f.opts.Precise {
		t := time.NewTicker(f.rotateEvery / 8)
		defer t.Stop()
		sweep = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-rot.C:
			f.Rotate()
		case now := <-sweep:
			f.ExpireDue(now)
		}
	}
}

// Stats is a point-in-time view of the ring for metrics.
type Stats struct {
	Span        time.Duration `json:"span_ns"`
	RotateEvery time.Duration `json:"rotate_every_ns"`
	Generations int           `json:"generations"`
	Head        int           `json:"head"`
	Rotations   uint64        `json:"rotations"`
	// GenItems is indexed by ring slot (not by age); slot Head is the
	// insert target, slot (Head+1) mod G the next to be retired.
	GenItems        []int `json:"gen_items"`
	PendingExpiries int   `json:"pending_expiries"`
}

// Stats returns the ring's shape, rotation count, and per-generation
// population.
func (f *Filter) Stats() Stats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := Stats{
		Span:            f.opts.Span,
		RotateEvery:     f.rotateEvery,
		Generations:     len(f.gens),
		Head:            f.head,
		Rotations:       f.rotations,
		GenItems:        make([]int, len(f.gens)),
		PendingExpiries: f.exp.Len(),
	}
	for i, g := range f.gens {
		st.GenItems[i] = g.Len()
	}
	return st
}

// FillRatio returns the load signal of the fullest generation: the
// window is healthy while even its most loaded generation stays in the
// sizing regime.
func (f *Filter) FillRatio() float64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	maxFill := 0.0
	for _, g := range f.gens {
		if r := g.FillRatio(); r > maxFill {
			maxFill = r
		}
	}
	return maxFill
}

// SaturatedWords sums overflow-frozen words across generations.
func (f *Filter) SaturatedWords() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	total := 0
	for _, g := range f.gens {
		total += g.SaturatedWords()
	}
	return total
}

// HeadShardStats returns the per-shard statistics of the head
// generation — the live insert target, where load skew shows first.
func (f *Filter) HeadShardStats() []mpcbf.ShardStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.gens[f.head].ShardStats()
}

// expiry is one precise-mode TTL entry.
type expiry struct {
	at    int64 // expiry time, unix nanos
	key   []byte
	slot  int
	epoch uint64
}

// expiryHeap is a min-heap on expiry time.
type expiryHeap []*expiry

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h expiryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)        { *h = append(*h, x.(*expiry)) }
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (h *expiryHeap) push(e *expiry) { heap.Push(h, e) }

func (h expiryHeap) peek() *expiry {
	if len(h) == 0 {
		return nil
	}
	return h[0]
}
