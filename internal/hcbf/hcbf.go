// Package hcbf implements the Hierarchical Counting Bloom Filter of the
// paper's Section III.B: the per-word data structure at the heart of MPCBF.
//
// A HCBF lives inside one w-bit machine word. The word is split into d
// levels laid out contiguously: level 1 is a b1-bit membership vector, and
// level j+1 holds exactly one bit per 1-bit of level j, ordered by parent
// position (so |v_{j+1}| = popcount(v_j)). The counter value of slot i is
// the length of the chain of 1-bits reached by repeated popcount indexing:
// starting at level-1 bit i, a 1 at position p of level j continues at
// position popcount_j(p) (the number of 1s before p in level j) of level
// j+1, and the first 0 terminates the chain (Algorithm 1).
//
// Incrementing a slot flips the first 0 on its chain to 1 and inserts a new
// 0 child bit in the next level, shifting the tail of the word right by one
// — so every outstanding increment consumes exactly one bit, and the word
// stores b1 + (sum of all counters) bits. Bits are only spent on non-zero
// counters, which is why b1 can be far larger than the w/4 slots a packed
// 4-bit-counter word offers, and why MPCBF's false positive rate beats the
// standard CBF's at equal memory.
package hcbf

import (
	"errors"
	"fmt"

	"repro/internal/bitvec"
)

// ErrOverflow is returned when an increment does not fit in the word: the
// hierarchy already occupies all w bits (the word-overflow event of the
// paper's Section III.B.4).
var ErrOverflow = errors.New("hcbf: word overflow")

// ErrUnderflow is returned when a decrement targets a slot whose counter is
// zero — deleting an element that was never inserted.
var ErrUnderflow = errors.New("hcbf: counter underflow")

// Word dispatch modes. Word-aligned default geometries take the
// register-resident kernel (kernel.go); everything else — the w=32/256
// ablation sweeps, unaligned windows, forced-generic views — walks the
// arena bit by bit.
const (
	modeGeneric = iota // per-bit arena walk (reference path)
	mode64             // w=64, 64-bit-aligned base: single-register kernel
	mode128            // w=128, 64-bit-aligned base: two-register kernel
)

// Word is a view of one HCBF embedded in a bit arena. The zero value is
// not usable; construct views via NewWord. Word carries no state of its
// own: everything is encoded in the arena bits, so views are cheap values.
type Word struct {
	arena *bitvec.Vector
	base  int   // absolute bit offset of the word in the arena
	w     int   // word width in bits
	b1    int   // first-level (membership sub-vector) width in bits
	mode  uint8 // kernel dispatch mode
}

// NewWord returns a view of the w-bit window starting at bit offset base
// of arena, interpreted as a HCBF with a b1-bit first level. Views over
// 64-bit-aligned windows of width 64 or 128 automatically use the
// register-resident kernel; all other geometries use the generic path.
func NewWord(arena *bitvec.Vector, base, w, b1 int) (Word, error) {
	h, err := NewWordGeneric(arena, base, w, b1)
	if err != nil {
		return h, err
	}
	if base&63 == 0 {
		switch w {
		case 64:
			h.mode = mode64
		case 128:
			h.mode = mode128
		}
	}
	return h, nil
}

// NewWordGeneric is NewWord with the kernel disabled: the view always takes
// the generic arena path. It exists for the kernel/generic differential
// tests and for ablations that want the reference implementation.
func NewWordGeneric(arena *bitvec.Vector, base, w, b1 int) (Word, error) {
	switch {
	case arena == nil:
		return Word{}, errors.New("hcbf: nil arena")
	case w <= 0:
		return Word{}, fmt.Errorf("hcbf: word width must be positive (w=%d)", w)
	case b1 <= 0 || b1 > w:
		return Word{}, fmt.Errorf("hcbf: first level must satisfy 0 < b1 <= w (b1=%d, w=%d)", b1, w)
	case base < 0 || base+w > arena.Len():
		return Word{}, fmt.Errorf("hcbf: window [%d,%d) outside arena of %d bits", base, base+w, arena.Len())
	}
	return Word{arena: arena, base: base, w: w, b1: b1, mode: modeGeneric}, nil
}

// Kernel reports whether the view uses the register-resident kernel.
func (h Word) Kernel() bool { return h.mode != modeGeneric }

// W returns the word width in bits.
func (h Word) W() int { return h.w }

// B1 returns the first-level width in bits (the slot range of the word).
func (h Word) B1() int { return h.b1 }

func (h Word) checkSlot(slot int) {
	if slot < 0 || slot >= h.b1 {
		panic(fmt.Sprintf("hcbf: slot %d out of range [0,%d)", slot, h.b1))
	}
}

// Has reports whether slot's counter is non-zero. Only the first level is
// consulted, which is what makes MPCBF queries single-access: membership
// never needs the hierarchy.
func (h Word) Has(slot int) bool {
	h.checkSlot(slot)
	switch h.mode {
	case mode64:
		return Has64(h.arena.Uint64At(h.base), slot)
	case mode128:
		return Has128(h.arena.Uint64At(h.base), h.arena.Uint64At(h.base+64), slot)
	}
	return h.arena.Get(h.base + slot)
}

// Count returns the counter value of slot by walking its chain.
func (h Word) Count(slot int) int {
	h.checkSlot(slot)
	switch h.mode {
	case mode64:
		return Count64(h.arena.Uint64At(h.base), h.b1, slot)
	case mode128:
		return Count128(h.arena.Uint64At(h.base), h.arena.Uint64At(h.base+64), h.b1, slot)
	}
	start, size := h.base, h.b1
	pos := slot
	c := 0
	for h.arena.Get(start + pos) {
		c++
		childIdx := h.arena.Ones(start, start+pos)
		nextSize := h.arena.Ones(start, start+size)
		pos, start, size = childIdx, start+size, nextSize
	}
	return c
}

// Used returns the number of occupied bits: b1 plus one bit per
// outstanding increment. It is recomputed from the bits alone so that a
// Word view needs no side state.
func (h Word) Used() int {
	switch h.mode {
	case mode64:
		return Used64(h.arena.Uint64At(h.base), h.b1)
	case mode128:
		return Used128(h.arena.Uint64At(h.base), h.arena.Uint64At(h.base+64), h.b1)
	}
	start, size := h.base, h.b1
	total := h.b1
	for {
		ones := h.arena.Ones(start, start+size)
		if ones == 0 {
			return total
		}
		start += size
		size = ones
		total += size
	}
}

// Fits reports whether the word's counter hierarchy ends inside the
// word. Words built by Inc and Dec always fit; only bits decoded from
// outside can fail it, and the per-bit walkers would then read past the
// word (off the arena for the last one).
func (h Word) Fits() bool {
	start, size, end := h.base, h.b1, h.base+h.w
	for start+size <= end {
		ones := h.arena.Ones(start, start+size)
		if ones == 0 {
			return true
		}
		start += size
		size = ones
	}
	return false
}

// Free returns the number of increments the word can still absorb.
func (h Word) Free() int { return h.w - h.Used() }

// Levels returns the sizes of the hierarchy levels currently in use,
// starting with b1. The slice length is the depth d; Σ Levels() == Used().
func (h Word) Levels() []int {
	switch h.mode {
	case mode64:
		return Levels64(h.arena.Uint64At(h.base), h.b1, nil)
	case mode128:
		return Levels128(h.arena.Uint64At(h.base), h.arena.Uint64At(h.base+64), h.b1, nil)
	}
	sizes := []int{h.b1}
	start, size := h.base, h.b1
	for {
		ones := h.arena.Ones(start, start+size)
		if ones == 0 {
			return sizes
		}
		start += size
		size = ones
		sizes = append(sizes, size)
	}
}

// Inc increments slot's counter. It returns the depth of the hierarchy
// level where the chain's first 0 was found (the counter's new value),
// which callers use for access-bandwidth accounting. ErrOverflow is
// returned, with no state change, when the word has no free bit.
func (h Word) Inc(slot int) (depth int, err error) {
	h.checkSlot(slot)
	switch h.mode {
	case mode64:
		x := h.arena.Uint64At(h.base)
		if Used64(x, h.b1) >= 64 {
			return 0, ErrOverflow
		}
		nx, depth := Inc64(x, h.b1, slot)
		h.arena.SetUint64At(h.base, nx)
		return depth, nil
	case mode128:
		lo, hi := h.arena.Uint64At(h.base), h.arena.Uint64At(h.base+64)
		if Used128(lo, hi, h.b1) >= 128 {
			return 0, ErrOverflow
		}
		nlo, nhi, depth := Inc128(lo, hi, h.b1, slot)
		h.arena.SetUint64At(h.base, nlo)
		h.arena.SetUint64At(h.base+64, nhi)
		return depth, nil
	}
	if h.Used() >= h.w {
		return 0, ErrOverflow
	}
	return h.incGeneric(slot), nil
}

// incGeneric is the arena-walking increment; the caller has verified the
// word has a free bit.
func (h Word) incGeneric(slot int) (depth int) {
	start, size := h.base, h.b1
	pos := slot
	depth = 1
	for h.arena.Get(start + pos) {
		childIdx := h.arena.Ones(start, start+pos)
		nextSize := h.arena.Ones(start, start+size)
		pos, start, size = childIdx, start+size, nextSize
		depth++
	}
	// First 0 of the chain is at (level depth, pos). Flip it and give it a
	// 0 child at position popcount(pos) of the next level, shifting the
	// tail of the word right by one bit.
	childIdx := h.arena.Ones(start, start+pos)
	h.arena.Set(start+pos, true)
	h.arena.InsertZero(start+size+childIdx, h.base+h.w)
	return depth
}

// IncBatch increments every slot of slots as one atomic word transaction:
// the capacity check runs once against the batch size, and either all
// increments apply or none do (ErrOverflow). On kernel geometries the word
// is loaded into registers once, updated len(slots) times, and stored back
// once — the fused per-key update path of the MPCBF core.
func (h Word) IncBatch(slots []int) error {
	for _, s := range slots {
		h.checkSlot(s)
	}
	switch h.mode {
	case mode64:
		x := h.arena.Uint64At(h.base)
		if 64-Used64(x, h.b1) < len(slots) {
			return ErrOverflow
		}
		for _, s := range slots {
			x, _ = Inc64(x, h.b1, s)
		}
		h.arena.SetUint64At(h.base, x)
		return nil
	case mode128:
		lo, hi := h.arena.Uint64At(h.base), h.arena.Uint64At(h.base+64)
		if 128-Used128(lo, hi, h.b1) < len(slots) {
			return ErrOverflow
		}
		for _, s := range slots {
			lo, hi, _ = Inc128(lo, hi, h.b1, s)
		}
		h.arena.SetUint64At(h.base, lo)
		h.arena.SetUint64At(h.base+64, hi)
		return nil
	}
	if h.Free() < len(slots) {
		return ErrOverflow
	}
	for _, s := range slots {
		h.incGeneric(s)
	}
	return nil
}

// Dec decrements slot's counter, undoing the deepest increment of its
// chain. It returns the depth of the removed chain link (the counter's
// previous value). ErrUnderflow is returned, with no state change, when
// the counter is zero.
func (h Word) Dec(slot int) (depth int, err error) {
	h.checkSlot(slot)
	switch h.mode {
	case mode64:
		nx, depth, ok := Dec64(h.arena.Uint64At(h.base), h.b1, slot)
		if !ok {
			return 0, ErrUnderflow
		}
		h.arena.SetUint64At(h.base, nx)
		return depth, nil
	case mode128:
		lo, hi := h.arena.Uint64At(h.base), h.arena.Uint64At(h.base+64)
		nlo, nhi, depth, ok := Dec128(lo, hi, h.b1, slot)
		if !ok {
			return 0, ErrUnderflow
		}
		h.arena.SetUint64At(h.base, nlo)
		h.arena.SetUint64At(h.base+64, nhi)
		return depth, nil
	}
	return h.decGeneric(slot)
}

// decGeneric is the arena-walking decrement.
func (h Word) decGeneric(slot int) (depth int, err error) {
	start, size := h.base, h.b1
	pos := slot
	if !h.arena.Get(start + pos) {
		return 0, ErrUnderflow
	}
	depth = 1
	for {
		childIdx := h.arena.Ones(start, start+pos)
		nextStart := start + size
		nextSize := h.arena.Ones(start, start+size)
		childAbs := nextStart + childIdx
		if !h.arena.Get(childAbs) {
			// (level depth, pos) is the chain's last 1: remove its 0 child
			// and clear it.
			h.arena.RemoveBit(childAbs, h.base+h.w)
			h.arena.Set(start+pos, false)
			return depth, nil
		}
		pos, start, size = childIdx, nextStart, nextSize
		depth++
	}
}

// DecBatch decrements every slot of slots, skipping slots whose counter is
// already zero, and returns how many were skipped. On kernel geometries the
// word is loaded once and stored once, mirroring IncBatch; unlike IncBatch
// the batch is not atomic — each slot decrements independently, matching
// the counting-filter deletion semantics of the core.
func (h Word) DecBatch(slots []int) (underflows int) {
	for _, s := range slots {
		h.checkSlot(s)
	}
	switch h.mode {
	case mode64:
		x := h.arena.Uint64At(h.base)
		for _, s := range slots {
			var ok bool
			if x, _, ok = Dec64(x, h.b1, s); !ok {
				underflows++
			}
		}
		h.arena.SetUint64At(h.base, x)
		return underflows
	case mode128:
		lo, hi := h.arena.Uint64At(h.base), h.arena.Uint64At(h.base+64)
		for _, s := range slots {
			var ok bool
			if lo, hi, _, ok = Dec128(lo, hi, h.b1, s); !ok {
				underflows++
			}
		}
		h.arena.SetUint64At(h.base, lo)
		h.arena.SetUint64At(h.base+64, hi)
		return underflows
	}
	for _, s := range slots {
		if _, err := h.decGeneric(s); err != nil {
			underflows++
		}
	}
	return underflows
}

// String renders the word's levels as bit strings separated by '|', e.g.
// "10101001|0110|00". Intended for tests and debugging.
func (h Word) String() string {
	out := ""
	start := h.base
	for i, size := range h.Levels() {
		if i > 0 {
			out += "|"
		}
		for p := start; p < start+size; p++ {
			if h.arena.Get(p) {
				out += "1"
			} else {
				out += "0"
			}
		}
		start += size
	}
	return out
}
