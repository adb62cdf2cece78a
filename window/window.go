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
// The ring is an mpcbf.Chain ordered by age, so lookups, deletes and
// batches are the chain's. Inserts go to the head generation. Contains
// ORs membership across all G generations, newest first. Every Span/G
// the ring rotates: the oldest generation is cleared and becomes the new
// head. A key inserted with the full span therefore survives at least
// Span - Span/G and at most Span; the staleness bound — how long an
// expired key may linger — is one rotation period, Span/G.
//
// InsertTTL places a key by its time-to-live: a TTL shorter than the
// span goes into an older generation so it retires after
// ceil(ttl/(Span/G))+1 rotations instead of G. TTL granularity is the
// rotation period.
package window

import (
	"errors"
	"fmt"
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

// errAbsent is Delete's error for a key no generation holds.
var errAbsent = errors.New("window: delete of key absent from every generation")

// Filter is a sliding-window membership structure: a ring of G
// generation filters, held oldest first in the embedded chain. Safe for
// concurrent use: queries, inserts and deletes take the chain's read
// lock (each generation has its own internal locks); only Rotate takes
// the write lock.
//
// The ring slots that WINDOW_STATS and the snapshot format number are
// fixed: generation i of the chain, counting from the oldest, sits in
// slot (head+1+i) mod G, so the head is slot head and the next to
// retire is slot head+1.
type Filter struct {
	*mpcbf.Chain
	opts        Options
	rotateEvery time.Duration

	// head and rotations change only under the chain's write lock.
	head      int // ring slot of the newest generation
	rotations uint64
}

// New builds an empty window. Each generation is an independent Sharded
// MPCBF with a distinct derived hash seed, so correlated word choices
// across generations cannot compound false positives.
func New(opts Options) (*Filter, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	ring := make([]*mpcbf.Sharded, opts.Generations)
	for i := range ring {
		cfg := opts.Filter
		cfg.Seed = opts.Filter.Seed + uint32(i)*0x01000193
		g, err := mpcbf.NewSharded(cfg, opts.Shards)
		if err != nil {
			return nil, fmt.Errorf("window: generation %d: %w", i, err)
		}
		ring[i] = g
	}
	return newFilter(opts, ring, 0, 0), nil
}

// newFilter builds a window over ring, its generations in slot order,
// whose newest generation sits in slot head.
func newFilter(opts Options, ring []*mpcbf.Sharded, head int, rotations uint64) *Filter {
	g := len(ring)
	gens := make([]*mpcbf.Sharded, g)
	for i := range gens {
		gens[i] = ring[(head+1+i)%g]
	}
	return &Filter{
		Chain:       mpcbf.NewChain(errAbsent, gens...),
		opts:        opts,
		rotateEvery: opts.Span / time.Duration(g),
		head:        head,
		rotations:   rotations,
	}
}

// ring returns gens, the chain's generations, in slot order.
func (f *Filter) ring(gens []*mpcbf.Sharded) []*mpcbf.Sharded {
	out := make([]*mpcbf.Sharded, len(gens))
	for i, g := range gens {
		out[(f.head+1+i)%len(gens)] = g
	}
	return out
}

// Span returns the configured window length.
func (f *Filter) Span() time.Duration { return f.opts.Span }

// RotateEvery returns the rotation period, Span/Generations — the
// staleness bound.
func (f *Filter) RotateEvery() time.Duration { return f.rotateEvery }

// Rotations returns the number of rotations performed since creation
// (or since the marshaled state this Filter was restored from).
func (f *Filter) Rotations() (n uint64) {
	f.View(func([]*mpcbf.Sharded) { n = f.rotations })
	return n
}

// Head returns the ring slot of the current insert generation.
func (f *Filter) Head() (head int) {
	f.View(func([]*mpcbf.Sharded) { head = f.head })
	return head
}

// RotationsFor maps a TTL to the number of future rotations the key
// must survive, in [1, G]. The ring guarantees a key surviving r
// rotations lives at least (r-1) rotation periods from insert, so the
// mapping rounds the TTL up to the next rotation boundary and adds one.
func (f *Filter) RotationsFor(ttl time.Duration) int {
	if ttl <= 0 {
		return 1
	}
	return min(int((ttl+f.rotateEvery-1)/f.rotateEvery)+1, f.opts.Generations)
}

// InsertTTL adds key so it expires no earlier than ttl from now and no
// later than the window span.
func (f *Filter) InsertTTL(key []byte, ttl time.Duration) error {
	return f.InsertRotations(key, f.RotationsFor(ttl))
}

// InsertRotations adds key into the generation retired exactly r
// rotations from now, r clamped to [1, G]: generation r-1 of the chain,
// counting from the oldest. This is the deterministic core of TTL
// placement: the serving layer's WAL records rotation counts, not
// wall-clock TTLs, so crash recovery and replication reconstruct the
// exact ring contents.
func (f *Filter) InsertRotations(key []byte, r int) (err error) {
	f.View(func(gens []*mpcbf.Sharded) { err = gens[clamp(r, len(gens))-1].Insert(key) })
	return err
}

// InsertRotationsBatch adds keys into the generation retired exactly r
// rotations from now, taking each of its shard locks once
// (mpcbf.Sharded.InsertBatch).
func (f *Filter) InsertRotationsBatch(keys [][]byte, r int) (err error) {
	f.View(func(gens []*mpcbf.Sharded) { err = gens[clamp(r, len(gens))-1].InsertBatch(keys, 0) })
	return err
}

// clamp returns r clamped to [1, g].
func clamp(r, g int) int { return min(max(r, 1), g) }

// Rotate retires the oldest generation in O(1): its counters are reset
// and it becomes the new head. With G = 1 a rotation clears the whole
// window — the degenerate single-generation configuration where every
// key lives at most one span.
func (f *Filter) Rotate() {
	f.Update(func(gens []*mpcbf.Sharded) []*mpcbf.Sharded {
		oldest := gens[0]
		oldest.Reset()
		copy(gens, gens[1:])
		gens[len(gens)-1] = oldest
		f.head = (f.head + 1) % len(gens)
		f.rotations++
		return gens
	})
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
	GenItems []int `json:"gen_items"`
}

// Stats returns the ring's shape, rotation count, and per-generation
// population.
func (f *Filter) Stats() (st Stats) {
	f.View(func(gens []*mpcbf.Sharded) {
		st = Stats{
			Span:        f.opts.Span,
			RotateEvery: f.rotateEvery,
			Generations: len(gens),
			Head:        f.head,
			Rotations:   f.rotations,
			GenItems:    make([]int, len(gens)),
		}
		for i, g := range f.ring(gens) {
			st.GenItems[i] = g.Len()
		}
	})
	return st
}

// FillRatio returns the load signal of the fullest generation: the
// window is healthy while even its most loaded generation stays in the
// sizing regime.
func (f *Filter) FillRatio() (fill float64) {
	f.View(func(gens []*mpcbf.Sharded) {
		for _, g := range gens {
			fill = max(fill, g.FillRatio())
		}
	})
	return fill
}
