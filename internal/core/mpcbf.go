// Package core implements the paper's primary contribution: the
// Multiple-Partitioned Counting Bloom Filter (MPCBF-1 and MPCBF-g,
// Sections III.B and III.C).
//
// The membership counter vector is partitioned into l words of w bits, each
// holding an improved Hierarchical CBF (internal/hcbf) whose first level
// occupies b1 = w - ceil(k/g)*nmax bits. A key hashes to g words and to k
// first-level slots split over them, so a query costs g memory accesses
// (one for MPCBF-1) while the first level is several times wider than the
// w/4 counters a packed CBF word would offer — which is what buys the
// order-of-magnitude false-positive-rate reduction at equal memory.
package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/analytic"
	"repro/internal/bitvec"
	"repro/internal/hashing"
	"repro/internal/hcbf"
	"repro/internal/metrics"
)

// ErrWordOverflow is returned by Insert when one of the key's words cannot
// absorb the key's increments. Under OverflowFail the filter state is
// unchanged; sizing via the Eq. 11 heuristic makes this event vanishingly
// rare (the paper never observed it).
var ErrWordOverflow = errors.New("mpcbf: word overflow")

// ErrUnderflow is returned by Delete when a slot counter is already zero —
// the key being deleted was not (fully) present.
var ErrUnderflow = errors.New("mpcbf: delete of absent key (counter underflow)")

// OverflowPolicy selects how Insert reacts to a full word.
type OverflowPolicy int

const (
	// OverflowFail rejects the insert, leaving the filter unchanged.
	OverflowFail OverflowPolicy = iota
	// OverflowSaturate marks the word saturated: every membership test
	// against it answers positive from then on, and its counters are
	// frozen. Like a saturated 4-bit counter this can create stale
	// positives but never false negatives.
	OverflowSaturate
)

// Config parametrizes a filter. Zero fields take defaults; see New.
type Config struct {
	// MemoryBits is the total memory budget M in bits (required).
	MemoryBits int
	// ExpectedN is the number of distinct elements the filter is sized
	// for; it drives the Eq. 11 nmax heuristic (required unless B1 set).
	ExpectedN int
	// W is the word width in bits (default 64).
	W int
	// K is the number of hash functions (default 3).
	K int
	// G is the number of words (memory accesses) per key (default 1).
	G int
	// B1 overrides the first-level width. Zero selects the improved
	// layout b1 = w - ceil(k/g)*nmax; a positive value builds the basic
	// HCBF of Fig. 3(a) with a fixed first level (used by ablations).
	B1 int
	// Seed selects the hash family.
	Seed uint32
	// Overflow selects the word-overflow policy (default OverflowFail).
	Overflow OverflowPolicy
	// DisableKernel forces the generic per-bit arena path even for word
	// geometries the register-resident kernel supports (w=64/128). Used by
	// the kernel/generic differential tests and ablations; production
	// filters leave it false.
	DisableKernel bool
}

func (c Config) withDefaults() Config {
	if c.W == 0 {
		c.W = 64
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.G == 0 {
		c.G = 1
	}
	return c
}

// Kernel dispatch modes for the filter's word geometry (mirrors the
// internal/hcbf dispatch; cached here so the hot query path never
// re-derives it).
const (
	kmodeGeneric = iota // per-bit arena walk
	kmode64             // w=64: single-register word kernel
	kmode128            // w=128: two-register word kernel
)

// Filter is an MPCBF-g.
type Filter struct {
	arena  *bitvec.Vector
	cfg    Config
	l      int   // number of words
	b1     int   // first-level width
	nmax   int   // per-word capacity used to derive b1 (0 when B1 forced)
	kmode  int   // register-kernel dispatch mode
	split  []int // slot hashes per word, ceil(k/g) first
	hasher hashing.Hasher

	count     int
	overflows int
	saturated map[int]bool // words switched to always-positive (Saturate)

	// Per-filter scratch for the update paths; a Filter is not safe for
	// concurrent use (wrap with a lock or use the public Sharded type),
	// so reusing these keeps Insert/Delete allocation-free.
	tbuf []target
	sbuf []int
}

// New builds a filter from cfg.
func New(cfg Config) (*Filter, error) {
	f, err := layout(cfg)
	if err != nil {
		return nil, err
	}
	f.arena = bitvec.New(f.l * f.cfg.W)
	f.saturated = make(map[int]bool)
	return &f, nil
}

// layout validates cfg and derives the filter it describes, everything
// but the storage: the arena and the saturated-word set stay nil.
func layout(cfg Config) (Filter, error) {
	cfg = cfg.withDefaults()
	if cfg.MemoryBits < cfg.W {
		return Filter{}, fmt.Errorf("mpcbf: memory %d bits smaller than one word (w=%d)", cfg.MemoryBits, cfg.W)
	}
	if cfg.K < 1 || cfg.G < 1 {
		return Filter{}, fmt.Errorf("mpcbf: k and g must be positive (k=%d, g=%d)", cfg.K, cfg.G)
	}
	if cfg.G > cfg.K {
		return Filter{}, fmt.Errorf("mpcbf: g=%d exceeds k=%d", cfg.G, cfg.K)
	}
	l := cfg.MemoryBits / cfg.W
	if cfg.G > l {
		return Filter{}, fmt.Errorf("mpcbf: g=%d exceeds word count l=%d", cfg.G, l)
	}
	b1 := cfg.B1
	nmax := 0
	if b1 == 0 {
		if cfg.ExpectedN <= 0 {
			return Filter{}, errors.New("mpcbf: ExpectedN required to derive the improved layout (or set B1)")
		}
		d, err := analytic.Design(cfg.ExpectedN, cfg.MemoryBits, cfg.W, cfg.K, cfg.G)
		if err != nil {
			return Filter{}, err
		}
		b1, nmax = d.B1, d.Nmax
	}
	if b1 < 1 || b1 > cfg.W {
		return Filter{}, fmt.Errorf("mpcbf: first level b1=%d outside (0,%d]", b1, cfg.W)
	}
	kmode := kmodeGeneric
	if !cfg.DisableKernel {
		switch cfg.W {
		case 64:
			kmode = kmode64
		case 128:
			kmode = kmode128
		}
	}
	return Filter{
		cfg:    cfg,
		l:      l,
		b1:     b1,
		nmax:   nmax,
		kmode:  kmode,
		split:  hashing.SplitKEven(cfg.K, cfg.G),
		hasher: hashing.NewHasher(cfg.Seed),
	}, nil
}

// L returns the number of words.
func (f *Filter) L() int { return f.l }

// W returns the word width in bits.
func (f *Filter) W() int { return f.cfg.W }

// B1 returns the first-level width in bits.
func (f *Filter) B1() int { return f.b1 }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.cfg.K }

// G returns the number of memory accesses per operation.
func (f *Filter) G() int { return f.cfg.G }

// Nmax returns the per-word capacity the improved layout was derived from
// (zero when B1 was forced).
func (f *Filter) Nmax() int { return f.nmax }

// Count returns the current number of elements (inserts minus deletes).
func (f *Filter) Count() int { return f.count }

// OverflowEvents returns how many inserts hit a full word.
func (f *Filter) OverflowEvents() int { return f.overflows }

// SaturatedWords returns how many words were switched to always-positive
// under OverflowSaturate.
func (f *Filter) SaturatedWords() int { return len(f.saturated) }

// MemoryBits returns the filter's memory footprint in bits.
func (f *Filter) MemoryBits() int { return f.l * f.cfg.W }

func (f *Filter) word(idx int) hcbf.Word {
	var w hcbf.Word
	var err error
	if f.cfg.DisableKernel {
		w, err = hcbf.NewWordGeneric(f.arena, idx*f.cfg.W, f.cfg.W, f.b1)
	} else {
		w, err = hcbf.NewWord(f.arena, idx*f.cfg.W, f.cfg.W, f.b1)
	}
	if err != nil {
		panic("mpcbf: internal geometry error: " + err.Error())
	}
	return w
}

// target is one word of a key together with the key's slots in it.
type target struct {
	word  int
	slots []int
}

// targets resolves the key's g words and the k slots split over them,
// into the filter's scratch buffers (valid until the next call). When two
// word hashes collide the targets are kept separate entries of the same
// word; capacity checks aggregate them.
func (f *Filter) targets(key []byte) []target {
	s := f.hasher.NewIndexStream(key)
	if cap(f.tbuf) < f.cfg.G {
		f.tbuf = make([]target, f.cfg.G)
		f.sbuf = make([]int, f.cfg.K)
	}
	out := f.tbuf[:f.cfg.G]
	slots := f.sbuf[:0]
	slot := 0
	for wi := 0; wi < f.cfg.G; wi++ {
		lo := len(slots)
		for j := 0; j < f.split[wi]; j++ {
			slots = append(slots, s.Slot(slot, f.b1))
			slot++
		}
		out[wi] = target{word: s.Word(wi, f.l), slots: slots[lo:]}
	}
	return out
}

// overflowWord records an overflow event on word idx and applies the
// configured policy: ErrWordOverflow under OverflowFail, or nil after
// freezing the word under OverflowSaturate.
func (f *Filter) overflowWord(idx int) error {
	f.overflows++
	if f.cfg.Overflow != OverflowSaturate {
		return ErrWordOverflow
	}
	f.saturated[idx] = true
	return nil
}

// Insert adds key. Under OverflowFail a full word rejects the whole insert
// atomically with ErrWordOverflow.
func (f *Filter) Insert(key []byte) error {
	_, err := f.insert(key, false)
	return err
}

// InsertStats is Insert with access accounting: g memory accesses, and for
// bandwidth log2(l) per word plus, for every increment, log2 of each
// hierarchy level traversed (the paper's update-bandwidth model).
func (f *Filter) InsertStats(key []byte) (metrics.OpStats, error) {
	return f.insert(key, true)
}

func (f *Filter) insert(key []byte, withStats bool) (metrics.OpStats, error) {
	var st metrics.OpStats
	// Hot path: default geometry (g=1, w=64), no accounting. The key's
	// word is loaded into a register once, its k slot indices are hashed
	// and incremented in place, and the word is stored back — one memory
	// access in, one out, with no intermediate target buffers. The update
	// is atomic: a full word fails before any bit changes.
	if !withStats && f.cfg.G == 1 && f.kmode == kmode64 {
		s := f.hasher.NewIndexStream(key)
		wIdx := s.Word(0, f.l)
		if len(f.saturated) != 0 && f.saturated[wIdx] {
			f.count++
			return st, nil
		}
		base := wIdx << 6
		b1, k := f.b1, f.cfg.K
		x := f.arena.Uint64At(base)
		if 64-hcbf.Used64(x, b1) < k {
			if err := f.overflowWord(wIdx); err != nil {
				return st, err
			}
			f.count++
			return st, nil
		}
		for i := 0; i < k; i++ {
			x, _ = hcbf.Inc64(x, b1, s.Slot(i, b1))
		}
		f.arena.SetUint64At(base, x)
		f.count++
		return st, nil
	}
	ts := f.targets(key)
	if withStats {
		st.MemAccesses = f.cfg.G
		st.HashBits = f.cfg.G * metrics.Log2Ceil(f.l)
	}
	// Fast path: single word, no accounting (g=1 off the w=64 kernel,
	// which took the hot path above). IncBatch is an atomic word
	// transaction, so no separate capacity pre-walk is needed: a full
	// word fails before any bit changes.
	if !withStats && len(ts) == 1 {
		t := ts[0]
		if len(f.saturated) != 0 && f.saturated[t.word] {
			f.count++
			return st, nil
		}
		if err := f.word(t.word).IncBatch(t.slots); err != nil {
			if err := f.overflowWord(t.word); err != nil {
				return st, err
			}
		}
		f.count++
		return st, nil
	}
	// Atomic capacity pre-check, aggregating slot counts per distinct word
	// (the g word hashes may collide). g is tiny, so the quadratic
	// duplicate scan beats a map.
	for i := range ts {
		dup := false
		for j := 0; j < i; j++ {
			if ts[j].word == ts[i].word {
				dup = true
				break
			}
		}
		if dup || f.saturated[ts[i].word] {
			continue
		}
		need := len(ts[i].slots)
		for j := i + 1; j < len(ts); j++ {
			if ts[j].word == ts[i].word {
				need += len(ts[j].slots)
			}
		}
		if f.word(ts[i].word).Free() < need {
			if err := f.overflowWord(ts[i].word); err != nil {
				return st, err
			}
		}
	}
	for _, t := range ts {
		if f.saturated[t.word] {
			continue
		}
		w := f.word(t.word)
		if !withStats {
			if err := w.IncBatch(t.slots); err != nil {
				// Unreachable given the pre-check; fail loudly if the
				// invariant is ever broken.
				panic("mpcbf: increment failed after capacity check: " + err.Error())
			}
			continue
		}
		for _, slot := range t.slots {
			levels := w.Levels()
			depth, err := w.Inc(slot)
			if err != nil {
				panic("mpcbf: increment failed after capacity check: " + err.Error())
			}
			for j := 0; j < depth; j++ {
				if j < len(levels) {
					st.HashBits += metrics.Log2Ceil(levels[j])
				}
			}
		}
	}
	f.count++
	return st, nil
}

// Delete removes key. A delete fails with ErrUnderflow, and changes
// nothing, when any of the key's counters is already zero: its words
// are written only once every one of its decrements is known to apply.
// As with the standard CBF, a key absent from the set but present by
// false positive still deletes, taking counts from the keys it collides
// with, so deletions of unverified keys stay hazardous.
func (f *Filter) Delete(key []byte) error {
	_, err := f.delete(key, false)
	return err
}

// DeleteStats is Delete with access accounting (same model as InsertStats).
func (f *Filter) DeleteStats(key []byte) (metrics.OpStats, error) {
	return f.delete(key, true)
}

func (f *Filter) delete(key []byte, withStats bool) (metrics.OpStats, error) {
	var st metrics.OpStats
	// Hot path: default geometry (g=1, w=64), no accounting — the mirror
	// image of the insert hot path: one aligned load, k register
	// decrements, and one store only if none of them underflowed.
	if !withStats && f.cfg.G == 1 && f.kmode == kmode64 {
		s := f.hasher.NewIndexStream(key)
		wIdx := s.Word(0, f.l)
		if len(f.saturated) != 0 && f.saturated[wIdx] {
			f.count--
			return st, nil
		}
		base := wIdx << 6
		b1, k := f.b1, f.cfg.K
		x := f.arena.Uint64At(base)
		for i := 0; i < k; i++ {
			var ok bool
			if x, _, ok = hcbf.Dec64(x, b1, s.Slot(i, b1)); !ok {
				return st, ErrUnderflow
			}
		}
		f.arena.SetUint64At(base, x)
		f.count--
		return st, nil
	}
	ts := f.targets(key)
	if withStats {
		st.MemAccesses = f.cfg.G
		st.HashBits = f.cfg.G * metrics.Log2Ceil(f.l)
	}
	// With g words a failed delete must not write any of them, so every
	// counter is checked before the first decrement.
	if !f.deletable(ts) {
		return st, ErrUnderflow
	}
	for _, t := range ts {
		if len(f.saturated) != 0 && f.saturated[t.word] {
			continue // frozen word: counters no longer tracked
		}
		w := f.word(t.word)
		if !withStats {
			// Fused per-word decrement: one load, one store on kernel
			// geometries.
			w.DecBatch(t.slots)
			continue
		}
		for _, slot := range t.slots {
			levels := w.Levels()
			depth, err := w.Dec(slot)
			if err != nil {
				panic("mpcbf: decrement failed after counter check: " + err.Error())
			}
			for j := 0; j < depth; j++ {
				if j < len(levels) {
					st.HashBits += metrics.Log2Ceil(levels[j])
				}
			}
		}
	}
	f.count--
	return st, nil
}

// deletable reports whether every counter of the key's targets ts holds
// at least as many increments as deleting the key removes from it. A
// slot named twice, within one target or by two targets on the same
// word, needs a count of two. Saturated words are skipped.
func (f *Filter) deletable(ts []target) bool {
	for i, t := range ts {
		if len(f.saturated) != 0 && f.saturated[t.word] {
			continue
		}
		w := f.word(t.word)
		for j, s := range t.slots {
			need := 1 + occurrences(t.slots[:j], s)
			for _, u := range ts[:i] {
				if u.word == t.word {
					need += occurrences(u.slots, s)
				}
			}
			if w.Count(s) < need {
				return false
			}
		}
	}
	return true
}

// occurrences returns how many times s occurs in slots.
func occurrences(slots []int, s int) int {
	n := 0
	for _, x := range slots {
		if x == s {
			n++
		}
	}
	return n
}

// Contains reports whether key may be in the set. This is the hot path:
// on kernel geometries each of the g words is fetched with a single
// aligned load and its k slot bits are tested in a register — the paper's
// one-memory-access query, literally. No cost accounting (use Probe for
// the instrumented variant).
func (f *Filter) Contains(key []byte) bool {
	s := f.hasher.NewIndexStream(key)
	slot := 0
	for wi := 0; wi < f.cfg.G; wi++ {
		wIdx := s.Word(wi, f.l)
		if len(f.saturated) != 0 && f.saturated[wIdx] {
			slot += f.split[wi]
			continue
		}
		switch f.kmode {
		case kmode64:
			x := f.arena.Uint64At(wIdx << 6)
			for j := 0; j < f.split[wi]; j++ {
				if x>>uint(s.Slot(slot, f.b1))&1 == 0 {
					return false
				}
				slot++
			}
		case kmode128:
			base := wIdx << 7
			lo, hi := f.arena.Uint64At(base), f.arena.Uint64At(base+64)
			for j := 0; j < f.split[wi]; j++ {
				if !hcbf.Has128(lo, hi, s.Slot(slot, f.b1)) {
					return false
				}
				slot++
			}
		default:
			base := wIdx * f.cfg.W
			for j := 0; j < f.split[wi]; j++ {
				if !f.arena.Get(base + s.Slot(slot, f.b1)) {
					return false
				}
				slot++
			}
		}
	}
	return true
}

// ContainsBatch answers membership for every key of keys, writing the
// results into dst (grown when too small) and returning it; a reused dst
// keeps the loop allocation-free. It plans 64 keys at a time on the stack
// and probes them through ContainsPlans, so on the kernel geometry their
// word loads are prefetched ahead of the probes — the single-threaded
// counterpart of Sharded.ContainsBatch.
func (f *Filter) ContainsBatch(keys [][]byte, dst []bool) []bool {
	if cap(dst) < len(keys) {
		dst = make([]bool, len(keys))
	}
	dst = dst[:len(keys)]
	const chunk = 4 * prefetchAhead
	var ps [chunk]Plan
	for lo := 0; lo < len(keys); lo += chunk {
		blk := keys[lo:min(lo+chunk, len(keys))]
		for i, k := range blk {
			ps[i] = f.Plan(k, i)
		}
		f.ContainsPlans(ps[:len(blk)], blk, dst[lo:])
	}
	return dst
}

// Probe is Contains with access accounting: one memory access per word
// visited (short-circuiting on the first word that rejects), log2(l) hash
// bits per word plus log2(b1) per first-level slot probed. Only the first
// level is ever read — the hierarchy is update-side state.
func (f *Filter) Probe(key []byte) (bool, metrics.OpStats) {
	s := f.hasher.NewIndexStream(key)
	wordBits := metrics.Log2Ceil(f.l)
	slotBits := metrics.Log2Ceil(f.b1)
	var st metrics.OpStats
	slot := 0
	for wi := 0; wi < f.cfg.G; wi++ {
		wIdx := s.Word(wi, f.l)
		st.MemAccesses++
		st.HashBits += wordBits
		if len(f.saturated) != 0 && f.saturated[wIdx] {
			slot += f.split[wi]
			continue
		}
		w := f.word(wIdx)
		for j := 0; j < f.split[wi]; j++ {
			st.HashBits += slotBits
			if !w.Has(s.Slot(slot, f.b1)) {
				return false, st
			}
			slot++
		}
	}
	return true, st
}

// CountOf returns the minimum counter value across key's slots, an upper
// bound on its multiplicity. Saturated words report a large value. Like
// Contains it is a read: it walks the key's index stream instead of the
// update paths' scratch, so concurrent readers of one filter share
// nothing they write.
func (f *Filter) CountOf(key []byte) int {
	min := int(^uint(0) >> 1)
	s := f.hasher.NewIndexStream(key)
	slot := 0
	for wi := 0; wi < f.cfg.G; wi++ {
		wIdx := s.Word(wi, f.l)
		if f.saturated[wIdx] {
			slot += f.split[wi]
			continue
		}
		w := f.word(wIdx)
		for j := 0; j < f.split[wi]; j++ {
			if c := w.Count(s.Slot(slot, f.b1)); c < min {
				min = c
			}
			slot++
		}
	}
	return min
}

// FillStats summarizes word occupancy: the mean used bits per word and
// the maximum hierarchy depth observed. On the kernel geometries it reads
// each word in registers and allocates nothing, so a metrics scrape or a
// growth check costs one pass over the arena.
func (f *Filter) FillStats() (meanUsed float64, maxDepth int) {
	total := 0
	words := f.arena.Words()
	switch f.kmode {
	case kmode64:
		for _, x := range words[:f.l] {
			total += hcbf.Used64(x, f.b1)
			if bits.OnesCount64(x) >= maxDepth { // else the depth cannot exceed maxDepth
				maxDepth = max(maxDepth, hcbf.Depth64(x, f.b1))
			}
		}
	case kmode128:
		for i := 0; i < f.l; i++ {
			lo, hi := words[2*i], words[2*i+1]
			total += hcbf.Used128(lo, hi, f.b1)
			maxDepth = max(maxDepth, hcbf.Depth128(lo, hi, f.b1))
		}
	default:
		for i := 0; i < f.l; i++ {
			w := f.word(i)
			total += w.Used()
			maxDepth = max(maxDepth, len(w.Levels()))
		}
	}
	return float64(total) / float64(f.l), maxDepth
}

// Reset clears the filter.
func (f *Filter) Reset() {
	f.arena.Reset()
	f.count = 0
	f.overflows = 0
	f.saturated = make(map[int]bool)
}
