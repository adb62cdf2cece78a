// Package elastic implements generational capacity growth for the
// sharded MPCBF: a Filter is an mpcbf.Chain of fixed-geometry
// generations where inserts always go to the newest generation (the
// head), lookups OR the chain newest-first, deletes go to the newest
// generation where they succeed, and a fresh head with geometrically
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
	"slices"
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

// generation describes one link of the chain beside its filter.
type generation struct {
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

// errAbsent is Delete's error for a key no generation holds.
var errAbsent = errors.New("elastic: delete of absent key")

// Filter is a growable chain of Sharded MPCBF generations: lookups,
// deletes and batches are the embedded chain's, and Filter adds the
// growth schedule. Safe for concurrent use: the chain's ops take its
// read lock, per-key operations each generation's own shard locks; only
// Grow, ImportGeneration and Reset take the write lock.
type Filter struct {
	*mpcbf.Chain
	opts Options

	// gens describes the chain's generations, oldest first; the last is
	// the head (insert target). It, grows and imports change only under
	// the chain's write lock.
	gens    []*generation
	grows   uint32 // grown generations ever created (head growIdx+1)
	imports uint64 // ImportGeneration calls absorbed
}

// New builds a chain holding just the seed generation.
func New(opts Options) (*Filter, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	f := &Filter{opts: opts, grows: 1}
	s, g, err := f.buildGeneration(0)
	if err != nil {
		return nil, err
	}
	f.Chain = mpcbf.NewChain(errAbsent, s)
	f.gens = []*generation{g}
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

func (f *Filter) buildGeneration(i uint32) (*mpcbf.Sharded, *generation, error) {
	cfg, capacity, budget := f.geometryFor(i)
	s, err := mpcbf.NewSharded(cfg, f.opts.Shards)
	if err != nil {
		return nil, nil, fmt.Errorf("elastic: generation %d: %w", i, err)
	}
	return s, &generation{capacity: capacity, budget: budget, growIdx: i}, nil
}

// TargetFPR returns the chain-wide false positive bound.
func (f *Filter) TargetFPR() float64 { return f.opts.TargetFPR }

// NeedsGrow reports whether the head is due for sealing: it reached its
// expected-item capacity or the GrowAt fill ratio. It never fires past
// MaxGenerations. The caller decides when to act (and records it) — the
// filter itself never grows implicitly, so replayed logs reconstruct
// the same chain.
func (f *Filter) NeedsGrow() (grow bool) {
	f.View(func(gens []*mpcbf.Sharded) {
		if len(gens) >= f.opts.MaxGenerations {
			return
		}
		head, h := gens[len(gens)-1], f.gens[len(gens)-1]
		n := head.Len()
		if n >= h.capacity {
			grow = true
			return
		}
		// The fill-ratio trigger needs an O(memory) word scan, so it is
		// consulted only in the top quarter of the capacity schedule and
		// at most once per capacity/256 inserts.
		if n*4 < h.capacity*3 {
			return
		}
		last := h.lastFill.Load()
		if int64(n)-last < int64(h.capacity/256)+1 || !h.lastFill.CompareAndSwap(last, int64(n)) {
			return
		}
		grow = head.FillRatio() >= f.opts.GrowAt
	})
	return grow
}

// Grow seals the current head and appends a fresh one with the next
// geometry in the schedule. Idempotence is the caller's concern: every
// call appends a generation, which is exactly what WAL replay needs.
func (f *Filter) Grow() (err error) {
	f.Update(func(gens []*mpcbf.Sharded) []*mpcbf.Sharded {
		s, g, e := f.buildGeneration(f.grows)
		if err = e; err != nil {
			return gens
		}
		f.gens = append(f.gens, g)
		f.grows++
		return append(gens, s)
	})
	return err
}

// Grows returns how many growth events the chain has absorbed — Grow
// calls since creation, excluding the seed generation (imported
// generations do not count either). A freshly created or Reset chain
// reports 0.
func (f *Filter) Grows() (n uint32) {
	f.View(func([]*mpcbf.Sharded) { n = f.grows - 1 })
	return n
}

// Imports returns how many generations arrived via ImportGeneration.
func (f *Filter) Imports() (n uint64) {
	f.View(func([]*mpcbf.Sharded) { n = f.imports })
	return n
}

// ImportGeneration splices s into the chain as a frozen generation just
// below the head: queries OR through it, deletes can decrement it, but
// inserts never target it. The filter takes ownership of s.
func (f *Filter) ImportGeneration(s *mpcbf.Sharded) {
	f.Update(func(gens []*mpcbf.Sharded) []*mpcbf.Sharded {
		f.gens = slices.Insert(f.gens, len(f.gens)-1, &generation{growIdx: importedGrowIdx, imported: true})
		f.imports++
		return slices.Insert(gens, len(gens)-1, s)
	})
}

// ExportGenerations returns a marshaled snapshot of each generation's
// filter, oldest first. Resharding uses it to flatten a dumped chain
// into individual frozen generations the destination chain absorbs via
// ImportGeneration.
func (f *Filter) ExportGenerations() (out [][]byte, err error) {
	f.View(func(gens []*mpcbf.Sharded) {
		out = make([][]byte, len(gens))
		for i, g := range gens {
			if out[i], err = g.MarshalBinary(); err != nil {
				out, err = nil, fmt.Errorf("elastic: export generation %d: %w", i, err)
				return
			}
		}
	})
	return out, err
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
	// Shards is the head generation's per-shard statistics, read in the
	// same walk over its words as its fill ratio.
	Shards []mpcbf.ShardStats `json:"head_shards"`
}

// Stats returns the chain's shape and per-generation occupancy, walking
// each word once.
func (f *Filter) Stats() (st Stats) {
	f.View(func(gens []*mpcbf.Sharded) {
		st = Stats{
			Generations: len(gens),
			Grows:       f.grows - 1,
			Imports:     f.imports,
			TargetFPR:   f.opts.TargetFPR,
			Gens:        make([]GenStats, len(gens)),
		}
		for i, s := range gens {
			g := f.gens[i]
			var fill float64
			if i == len(gens)-1 {
				st.Shards, fill = s.ShardStats()
			} else {
				fill = s.FillRatio()
			}
			st.Gens[i] = GenStats{
				Items:      s.Len(),
				Capacity:   g.capacity,
				FillRatio:  fill,
				Budget:     g.budget,
				MemoryBits: s.MemoryBits(),
				Imported:   g.imported,
			}
		}
	})
	return st
}

// ExpectedFPR returns the analytic union bound of the chain's grown
// generations at their current populations — what the chain believes
// its false positive rate is right now. Imported generations are
// evaluated at their populations against their own geometry.
func (f *Filter) ExpectedFPR() (total float64) {
	f.View(func(gens []*mpcbf.Sharded) {
		for i, s := range gens {
			g := f.gens[i]
			cfg, _, _ := f.geometryFor(0)
			if !g.imported {
				cfg, _, _ = f.geometryFor(g.growIdx)
			} else {
				cfg.MemoryBits = s.MemoryBits()
			}
			total += analyticFPR(cfg, max(s.Len(), 1))
		}
	})
	return math.Min(total, 1)
}

// Reset empties the chain back to a fresh seed generation.
func (f *Filter) Reset() {
	s, g, err := f.buildGeneration(0)
	if err != nil {
		// The seed geometry built once at New; it cannot fail now.
		panic(fmt.Sprintf("elastic: rebuild seed generation: %v", err))
	}
	f.Update(func([]*mpcbf.Sharded) []*mpcbf.Sharded {
		f.gens = []*generation{g}
		f.grows, f.imports = 1, 0
		return []*mpcbf.Sharded{s}
	})
}
