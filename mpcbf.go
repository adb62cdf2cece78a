package mpcbf

import (
	"repro/internal/analytic"
	"repro/internal/core"
)

// MPCBF is the paper's Multiple-Partitioned Counting Bloom Filter: a
// counting filter whose membership queries cost MemoryAccesses (default
// one) word fetches and whose false positive rate at equal memory is
// roughly an order of magnitude below the standard CBF's.
type MPCBF struct {
	f *core.Filter
}

// New builds an MPCBF from o. MemoryBits and ExpectedItems are required:
// the expected population drives the per-word capacity heuristic that
// fixes the first-level width (the improved HCBF layout of Section III.B).
func New(o Options) (*MPCBF, error) {
	policy := core.OverflowSaturate
	if o.StrictOverflow {
		policy = core.OverflowFail
	}
	f, err := core.New(core.Config{
		MemoryBits: o.MemoryBits,
		ExpectedN:  o.ExpectedItems,
		W:          o.w(),
		K:          o.k(),
		G:          o.g(),
		Seed:       o.Seed,
		Overflow:   policy,
	})
	if err != nil {
		return nil, err
	}
	return &MPCBF{f: f}, nil
}

// Insert adds key. Under the default policy a full word is frozen as
// always-positive and the insert succeeds; with Options.StrictOverflow a
// full word rejects the insert atomically with an error. The sizing
// heuristic makes either event rare.
func (m *MPCBF) Insert(key []byte) error { return m.f.Insert(key) }

// InsertWithCost is Insert with the operation's access cost.
func (m *MPCBF) InsertWithCost(key []byte) (Cost, error) {
	st, err := m.f.InsertStats(key)
	return fromStats(st), err
}

// Delete removes a previously inserted key.
func (m *MPCBF) Delete(key []byte) error { return m.f.Delete(key) }

// DeleteWithCost is Delete with the operation's access cost.
func (m *MPCBF) DeleteWithCost(key []byte) (Cost, error) {
	st, err := m.f.DeleteStats(key)
	return fromStats(st), err
}

// Contains reports whether key may be in the set, reading only the g
// first-level sub-vectors (one memory access per word).
func (m *MPCBF) Contains(key []byte) bool { return m.f.Contains(key) }

// ContainsBatch answers membership for every key of keys in order, writing
// the results into dst (grown when too small) and returning it. It is the
// single-threaded analog of Sharded.ContainsBatch: on the default
// geometry (g=1, w=64) it hashes 64 keys at a time, then probes them
// while prefetching the word of the key 16 ahead, so that their cache
// misses overlap, and a reused dst makes bulk queries allocation-free.
// Pass nil to let the method allocate.
func (m *MPCBF) ContainsBatch(keys [][]byte, dst []bool) []bool {
	return m.f.ContainsBatch(keys, dst)
}

// ContainsWithCost is Contains with the operation's access cost; negative
// queries short-circuit on the first rejecting word.
func (m *MPCBF) ContainsWithCost(key []byte) (bool, Cost) {
	ok, st := m.f.Probe(key)
	return ok, fromStats(st)
}

// EstimateCount returns an upper bound on key's multiplicity.
func (m *MPCBF) EstimateCount(key []byte) int { return m.f.CountOf(key) }

// Len returns the current number of elements.
func (m *MPCBF) Len() int { return m.f.Count() }

// MemoryBits returns the filter's memory footprint in bits.
func (m *MPCBF) MemoryBits() int { return m.f.MemoryBits() }

// Reset clears the filter.
func (m *MPCBF) Reset() { m.f.Reset() }

// Geometry describes the derived layout of an MPCBF.
type Geometry struct {
	Words          int // l: number of w-bit words
	WordBits       int // w
	FirstLevelBits int // b1: slots per word
	HashFunctions  int // k
	MemoryAccesses int // g
	WordCapacity   int // nmax: per-word element budget (0 if layout forced)
}

// Geometry reports the filter's derived layout.
func (m *MPCBF) Geometry() Geometry {
	return Geometry{
		Words:          m.f.L(),
		WordBits:       m.f.W(),
		FirstLevelBits: m.f.B1(),
		HashFunctions:  m.f.K(),
		MemoryAccesses: m.f.G(),
		WordCapacity:   m.f.Nmax(),
	}
}

// OverflowEvents returns how many inserts hit a full word; with the
// heuristic sizing this stays at (or very near) zero.
func (m *MPCBF) OverflowEvents() int { return m.f.OverflowEvents() }

// SaturatedWords returns how many words were frozen as always-positive by
// the graceful overflow policy.
func (m *MPCBF) SaturatedWords() int { return m.f.SaturatedWords() }

// FillStats summarizes word occupancy: the mean used bits per word and
// the maximum hierarchy depth observed.
func (m *MPCBF) FillStats() (meanUsedBits float64, maxDepth int) { return m.f.FillStats() }

// ExpectedFPR returns the analytic false positive rate of this filter's
// geometry at population n (Eq. 9 of the paper).
func (m *MPCBF) ExpectedFPR(n int) float64 {
	mCounters := m.f.MemoryBits() / analytic.CounterBits
	nmax := m.f.Nmax()
	if nmax == 0 {
		// Forced-B1 layouts carry no heuristic capacity; recover the
		// equivalent nmax from the layout identity b1 = w - ceil(k/g)*nmax.
		perWord := (m.f.K() + m.f.G() - 1) / m.f.G()
		nmax = (m.f.W() - m.f.B1()) / perWord
	}
	return analytic.FPRMPCBFg(n, mCounters, m.f.W(), m.f.K(), m.f.G(), nmax)
}
