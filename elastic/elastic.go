// Package elastic implements generational capacity growth for the
// sharded MPCBF: a Filter is a chain of fixed-geometry generations
// where inserts always go to the newest generation (the head), lookups
// OR the chain newest-first, and a fresh head with geometrically
// scaled capacity is sealed on top whenever the current head fills.
//
// The chain keeps a bounded false positive rate the same way scalable
// Bloom filters do (Dynamic Partition Bloom Filters, arXiv:1901.06493;
// Autoscaling Bloom Filter, arXiv:1705.03934): generation i is sized
// for a tightened budget eps_i = eps * (1-r) * r^i, so the union bound
// over the whole chain stays under the configured target eps no matter
// how many generations growth appends. Capacity scales geometrically
// (factor G per generation), so reaching N elements costs O(log N)
// generations and a lookup is at most that many membership probes.
//
// Growth is never triggered inside the filter itself: callers (the
// server store) check NeedsGrow after applying inserts and call Grow
// explicitly, which is what lets a write-ahead log record the exact
// point of growth and replay it deterministically.
//
// A chain can also absorb whole filters from elsewhere: ImportGeneration
// splices an already-populated Sharded in as a frozen generation. That
// is the cluster-resharding primitive — a Bloom filter cannot enumerate
// its keys, so moving a key range means importing the source filter
// wholesale and letting membership queries OR through it. Imported
// generations are never insert targets and carry no FPR budget of their
// own; they cost the chain extra fill, not correctness.
package elastic

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	mpcbf "repro"
	"repro/internal/analytic"
)

// Options configures an elastic chain. The zero value of every field
// takes the documented default.
type Options struct {
	// Filter is the geometry of generation 0 (the seed generation):
	// MemoryBits and ExpectedItems set the base capacity, and the hash
	// parameters (k, g, word width, seed) are shared by every grown
	// generation. Required.
	Filter mpcbf.Options
	// Shards is the shard count of every generation (default 1).
	Shards int
	// TargetFPR is the chain-wide false positive bound eps. 0 derives
	// it from the seed geometry: eps = fpr0 / (1 - TighteningRatio),
	// where fpr0 is the seed generation's analytic FPR at its expected
	// items — the chain then promises "no worse than twice the filter
	// you configured" under the default ratio.
	TargetFPR float64
	// GrowthFactor scales ExpectedItems per generation (default 2).
	GrowthFactor int
	// TighteningRatio is r: generation i gets FPR budget
	// eps*(1-r)*r^i (default 0.5).
	TighteningRatio float64
	// GrowAt is the head fill-ratio trigger for NeedsGrow (default
	// 0.9). Reaching the head's expected-item capacity triggers
	// regardless.
	GrowAt float64
	// MaxGenerations bounds the chain length (default 48). A chain at
	// the bound stops reporting NeedsGrow and keeps absorbing inserts
	// into its head, trading the FPR bound for availability.
	MaxGenerations int
}

func (o *Options) setDefaults() error {
	if o.Filter.MemoryBits <= 0 {
		return errors.New("elastic: Filter.MemoryBits required")
	}
	if o.Filter.ExpectedItems <= 0 {
		return errors.New("elastic: Filter.ExpectedItems required")
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.GrowthFactor < 2 {
		o.GrowthFactor = 2
	}
	if o.TighteningRatio <= 0 || o.TighteningRatio >= 1 {
		o.TighteningRatio = 0.5
	}
	if o.GrowAt <= 0 || o.GrowAt > 1 {
		o.GrowAt = 0.9
	}
	if o.MaxGenerations <= 0 {
		o.MaxGenerations = 48
	}
	if o.TargetFPR <= 0 {
		fpr0 := analyticFPR(o.Filter, o.Filter.ExpectedItems)
		o.TargetFPR = fpr0 / (1 - o.TighteningRatio)
	}
	if o.TargetFPR >= 1 {
		return fmt.Errorf("elastic: target FPR %g not below 1", o.TargetFPR)
	}
	return nil
}

// analyticFPR evaluates the MPCBF-g model for a geometry at n items; an
// undersized geometry that the designer rejects reads as rate 1.
func analyticFPR(o mpcbf.Options, n int) float64 {
	k, g, w := 3, 1, 64
	if o.HashFunctions > 0 {
		k = o.HashFunctions
	}
	if o.MemoryAccesses > 0 {
		g = o.MemoryAccesses
	}
	if o.WordBits > 0 {
		w = o.WordBits
	}
	d, err := analytic.Design(n, o.MemoryBits, w, k, g)
	if err != nil {
		return 1
	}
	return d.FPR(n)
}

// generation is one link of the chain.
type generation struct {
	f *mpcbf.Sharded
	// capacity is the expected-item target that seals the generation
	// when it is the head (0 for imported generations).
	capacity int
	// budget is the generation's slice of the chain FPR bound (0 for
	// imported generations, which spend no budget).
	budget float64
	// growIdx is the generation's position in the growth schedule; its
	// geometry is a pure function of (Options, growIdx). Imported
	// generations use importedGrowIdx.
	growIdx uint32
	// imported generations came in whole via ImportGeneration (the
	// resharding path); they are frozen — never an insert target.
	imported bool
	// lastFill is the Len at which the fill ratio was last scanned;
	// NeedsGrow amortizes the O(memory) scan against it.
	lastFill atomic.Int64
}

const importedGrowIdx = ^uint32(0)

// Filter is a growable chain of Sharded MPCBF generations. Safe for
// concurrent use: the chain structure is guarded here, per-key
// operations by each generation's own shard locks.
type Filter struct {
	opts Options

	mu    sync.RWMutex
	gens  []*generation // gens[len-1] is the head (insert target)
	grows uint32        // grown generations ever created (head growIdx+1)

	imports uint64 // ImportGeneration calls absorbed
}

// New builds a chain holding just the seed generation.
func New(opts Options) (*Filter, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	f := &Filter{opts: opts}
	g, err := f.buildGeneration(0)
	if err != nil {
		return nil, err
	}
	f.gens = []*generation{g}
	f.grows = 1
	return f, nil
}

// geometryFor derives generation i's geometry: capacity n_i scales by
// GrowthFactor^i, the FPR budget tightens by TighteningRatio^i, and the
// memory budget is searched upward (deterministic integer steps) until
// the analytic model meets the budget. A pure function of (opts, i), so
// every node replaying the same growth schedule builds byte-identical
// generations.
func (f *Filter) geometryFor(i uint32) (cfg mpcbf.Options, capacity int, budget float64) {
	o := f.opts
	cfg = o.Filter
	capacity = o.Filter.ExpectedItems
	budget = o.TargetFPR * (1 - o.TighteningRatio)
	for j := uint32(0); j < i; j++ {
		capacity *= o.GrowthFactor
		budget *= o.TighteningRatio
	}
	if i == 0 {
		return cfg, capacity, budget
	}
	cfg.ExpectedItems = capacity
	cfg.Seed = o.Filter.Seed + i*0x85ebca6b
	// Start from capacity-proportional memory and step up by 25% until
	// the model meets the tightened budget at the best k for that
	// geometry (bounded deterministic search). Letting k float per
	// generation is what keeps the memory overhead near the theoretical
	// ~log2(1/r) extra bits/key per generation instead of blowing up
	// against a fixed-k FPR floor.
	g, w := 1, 64
	if o.Filter.MemoryAccesses > 0 {
		g = o.Filter.MemoryAccesses
	}
	if o.Filter.WordBits > 0 {
		w = o.Filter.WordBits
	}
	m := o.Filter.MemoryBits
	for j := uint32(0); j < i; j++ {
		m *= o.GrowthFactor
	}
	bestK := cfg.HashFunctions
	for step := 0; step < 64; step++ {
		k, fpr := analytic.OptimalKMPCBF(capacity, m, w, g, maxHashFunctions)
		if k > 0 {
			bestK = k
		}
		if fpr <= budget {
			break
		}
		m += m / 4
	}
	cfg.MemoryBits = m
	cfg.HashFunctions = bestK
	return cfg, capacity, budget
}

// maxHashFunctions caps the per-generation optimal-k search.
const maxHashFunctions = 8

func (f *Filter) buildGeneration(i uint32) (*generation, error) {
	cfg, capacity, budget := f.geometryFor(i)
	s, err := mpcbf.NewSharded(cfg, f.opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("elastic: generation %d: %w", i, err)
	}
	return &generation{f: s, capacity: capacity, budget: budget, growIdx: i}, nil
}

func (f *Filter) head() *generation { return f.gens[len(f.gens)-1] }

// Insert adds key to the head generation. It never grows the chain;
// check NeedsGrow and call Grow (logging it) afterwards.
func (f *Filter) Insert(key []byte) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.head().f.Insert(key)
}

// InsertBatch adds keys to the head generation using up to workers
// goroutines.
func (f *Filter) InsertBatch(keys [][]byte, workers int) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.head().f.InsertBatch(keys, workers)
}

// Contains ORs the chain newest-first: the head holds the hottest keys,
// so most positives resolve on the first probe.
func (f *Filter) Contains(key []byte) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for i := len(f.gens) - 1; i >= 0; i-- {
		if f.gens[i].f.Contains(key) {
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
// the calling goroutine, carrying only unresolved keys to older
// generations. The result belongs to sc (see mpcbf.ContainsChainInto).
func (f *Filter) ContainsBatchInto(keys [][]byte, sc *mpcbf.BatchScratch) []bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	last := len(f.gens) - 1
	return mpcbf.ContainsChainInto(len(f.gens), func(i int) *mpcbf.Sharded { return f.gens[last-i].f }, keys, sc)
}

// Delete removes key from the newest generation that reports it — the
// counting-filter ownership rule: the generation whose counters the
// insert incremented is the only one a decrement is sound in, and
// newest-first matches where re-inserted keys live.
func (f *Filter) Delete(key []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.deleteLocked(key)
}

func (f *Filter) deleteLocked(key []byte) error {
	for i := len(f.gens) - 1; i >= 0; i-- {
		if f.gens[i].f.Contains(key) {
			return f.gens[i].f.Delete(key)
		}
	}
	return errors.New("elastic: delete of absent key")
}

// DeleteBatch deletes keys, returning order-preserving flags for which
// keys were actually removed. Absent keys read as false, not errors.
func (f *Filter) DeleteBatch(keys [][]byte, workers int) ([]bool, error) {
	_ = workers // deletes scan the chain per key; batch parallelism buys nothing
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]bool, len(keys))
	for i, k := range keys {
		out[i] = f.deleteLocked(k) == nil
	}
	return out, nil
}

// EstimateCount returns an upper bound on key's multiplicity: the sum
// of per-generation estimates (a key re-inserted after growth counts in
// several generations).
func (f *Filter) EstimateCount(key []byte) int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, g := range f.gens {
		n += g.f.EstimateCount(key)
	}
	return n
}

// Len returns the element count across the chain.
func (f *Filter) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, g := range f.gens {
		n += g.f.Len()
	}
	return n
}

// MemoryBits returns the aggregate footprint of every generation.
func (f *Filter) MemoryBits() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, g := range f.gens {
		n += g.f.MemoryBits()
	}
	return n
}

// FillRatio reports the head generation's fill — the growth signal.
func (f *Filter) FillRatio() float64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.head().f.FillRatio()
}

// SaturatedWords sums frozen always-positive words across the chain.
func (f *Filter) SaturatedWords() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, g := range f.gens {
		n += g.f.SaturatedWords()
	}
	return n
}

// HeadShardStats reports the head generation's per-shard counters (the
// live insert target, where load skew shows first).
func (f *Filter) HeadShardStats() []mpcbf.ShardStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.head().f.ShardStats()
}

// Generations returns the chain length.
func (f *Filter) Generations() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.gens)
}

// TargetFPR returns the chain-wide false positive bound.
func (f *Filter) TargetFPR() float64 { return f.opts.TargetFPR }

// NeedsGrow reports whether the head is due for sealing: it reached its
// expected-item capacity or the GrowAt fill ratio. It never fires past
// MaxGenerations. The caller decides when to act (and records it) — the
// filter itself never grows implicitly, so replayed logs reconstruct
// the same chain.
func (f *Filter) NeedsGrow() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(f.gens) >= f.opts.MaxGenerations {
		return false
	}
	h := f.head()
	n := h.f.Len()
	if n >= h.capacity {
		return true
	}
	// The fill-ratio trigger needs an O(memory) word scan, so it is
	// consulted only in the top quarter of the capacity schedule and at
	// most once per capacity/256 inserts.
	if n*4 < h.capacity*3 {
		return false
	}
	last := h.lastFill.Load()
	if int64(n)-last < int64(h.capacity/256)+1 {
		return false
	}
	if !h.lastFill.CompareAndSwap(last, int64(n)) {
		return false
	}
	return h.f.FillRatio() >= f.opts.GrowAt
}

// Grow seals the current head and appends a fresh one with the next
// geometry in the schedule. Idempotence is the caller's concern: every
// call appends a generation, which is exactly what WAL replay needs.
func (f *Filter) Grow() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	g, err := f.buildGeneration(f.grows)
	if err != nil {
		return err
	}
	f.gens = append(f.gens, g)
	f.grows++
	return nil
}

// Grows returns how many growth events the chain has absorbed — Grow
// calls since creation, excluding the seed generation (imported
// generations do not count either). A freshly created or Reset chain
// reports 0.
func (f *Filter) Grows() uint32 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.grows - 1
}

// Imports returns how many generations arrived via ImportGeneration.
func (f *Filter) Imports() uint64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.imports
}

// ImportGeneration splices s into the chain as a frozen generation just
// below the head: queries OR through it, deletes can decrement it, but
// inserts never target it. The filter takes ownership of s.
func (f *Filter) ImportGeneration(s *mpcbf.Sharded) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g := &generation{f: s, growIdx: importedGrowIdx, imported: true}
	f.gens = append(f.gens, nil)
	copy(f.gens[len(f.gens)-1:], f.gens[len(f.gens)-2:])
	f.gens[len(f.gens)-2] = g
	f.imports++
}

// ExportGenerations returns a marshaled snapshot of each generation's
// filter, oldest first. Resharding uses it to flatten a dumped chain
// into individual frozen generations the destination chain absorbs via
// ImportGeneration.
func (f *Filter) ExportGenerations() ([][]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([][]byte, len(f.gens))
	for i, g := range f.gens {
		b, err := g.f.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("elastic: export generation %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}

// GenStats describes one generation for observability.
type GenStats struct {
	Items      int     `json:"items"`
	Capacity   int     `json:"capacity"` // 0 for imported generations
	FillRatio  float64 `json:"fill_ratio"`
	Budget     float64 `json:"fpr_budget"` // 0 for imported generations
	MemoryBits int     `json:"memory_bits"`
	Imported   bool    `json:"imported"`
}

// Stats is a point-in-time view of the chain.
type Stats struct {
	Generations int        `json:"generations"`
	Grows       uint32     `json:"grows"` // growth events; the seed generation is not one
	Imports     uint64     `json:"imports"`
	TargetFPR   float64    `json:"target_fpr"`
	Gens        []GenStats `json:"gens"` // oldest first; last is the head
}

// Stats returns the chain's shape and per-generation occupancy.
func (f *Filter) Stats() Stats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	st := Stats{
		Generations: len(f.gens),
		Grows:       f.grows - 1,
		Imports:     f.imports,
		TargetFPR:   f.opts.TargetFPR,
		Gens:        make([]GenStats, len(f.gens)),
	}
	for i, g := range f.gens {
		st.Gens[i] = GenStats{
			Items:      g.f.Len(),
			Capacity:   g.capacity,
			FillRatio:  g.f.FillRatio(),
			Budget:     g.budget,
			MemoryBits: g.f.MemoryBits(),
			Imported:   g.imported,
		}
	}
	return st
}

// ExpectedFPR returns the analytic union bound of the chain's grown
// generations at their current populations — what the chain believes
// its false positive rate is right now. Imported generations are
// evaluated at their populations against their own geometry.
func (f *Filter) ExpectedFPR() float64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	total := 0.0
	for _, g := range f.gens {
		cfg, _, _ := f.geometryFor(0)
		if !g.imported {
			cfg, _, _ = f.geometryFor(g.growIdx)
		} else {
			cfg.MemoryBits = g.f.MemoryBits()
		}
		total += analyticFPR(cfg, maxInt(g.f.Len(), 1))
	}
	return math.Min(total, 1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Reset empties the chain back to a fresh seed generation.
func (f *Filter) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	g, err := f.buildGeneration(0)
	if err != nil {
		// The seed geometry built once at New; it cannot fail now.
		panic(fmt.Sprintf("elastic: rebuild seed generation: %v", err))
	}
	f.gens = []*generation{g}
	f.grows = 1
	f.imports = 0
}
