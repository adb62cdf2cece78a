// Register-resident HCBF word kernel.
//
// For the word geometries that actually ship — w=64 (the default) and w=128
// — an HCBF word laid out at a 64-bit-aligned arena offset fits in one or
// two machine registers. The functions in this file implement the full word
// algebra (membership, counter readout, increment, decrement, occupancy) as
// pure math/bits operations on those registers: the popcount-indexed chain
// walk of Algorithm 1 becomes OnesCount64 on masked prefixes, and the
// level-growth bit insertion becomes a shift/mask splice instead of the
// generic arena-walking ShiftRightOne loop. Callers load the word once,
// apply any number of operations in registers, and store it back once —
// which is what makes the paper's "one memory access per word" claim real
// in software rather than an accounting convention.
//
// The generic arena path in hcbf.go remains the reference implementation
// and the fallback for odd geometries (forced-B1 ablations at other widths,
// w=32/256 sweeps, unaligned windows); FuzzKernelVsGeneric and the
// differential tests in kernel_test.go pin the two bit-for-bit against each
// other.
package hcbf

import "math/bits"

// mask64 returns a mask of the k lowest bits, 0 <= k <= 64. Branchless:
// Go defines non-constant shifts by >= 64 to yield 0, so k=64 gives 0-1 =
// all ones without a comparison.
func mask64(k int) uint64 {
	return uint64(1)<<uint(k) - 1
}

// --- 64-bit kernel -------------------------------------------------------
//
// x holds the whole word: arena bit base+i is bit i of x. Level 1 occupies
// bits [0,b1); level j+1 starts where level j ends and has popcount(level j)
// bits. All functions are branch-light and allocation-free; walk loops
// terminate because every 1-bit chain ends in a 0 (each 1 at level j owns
// exactly one child bit at level j+1) and level offsets never pass 64.

// Has64 reports whether slot's counter is non-zero.
func Has64(x uint64, slot int) bool { return x>>uint(slot)&1 != 0 }

// Used64 returns the number of occupied bits: b1 plus one bit per
// outstanding increment. Every 1 anywhere in the hierarchy is exactly one
// outstanding increment (it owns exactly one child bit), and both Inc64 and
// Dec64 keep bits at or above the occupied region zero, so occupancy is a
// single popcount rather than a level walk.
func Used64(x uint64, b1 int) int {
	return b1 + bits.OnesCount64(x)
}

// Count64 returns the counter value of slot (Algorithm 1 in registers).
func Count64(x uint64, b1, slot int) int {
	off, size, pos, c := 0, b1, slot, 0
	for x>>uint(off+pos)&1 != 0 {
		c++
		level := x >> uint(off)
		childIdx := bits.OnesCount64(level & mask64(pos))
		nextSize := bits.OnesCount64(level & mask64(size))
		pos, off, size = childIdx, off+size, nextSize
	}
	return c
}

// Inc64 increments slot's counter and returns the new word and the depth of
// the flipped bit (the counter's new value). The caller must have checked
// that the word has at least one free bit (Used64 < 64): the tail splice
// shifts bit 63 out, which is only safe while the top of the word is empty.
func Inc64(x uint64, b1, slot int) (uint64, int) {
	off, size, pos, depth := 0, b1, slot, 1
	for x>>uint(off+pos)&1 != 0 {
		level := x >> uint(off)
		childIdx := bits.OnesCount64(level & mask64(pos))
		nextSize := bits.OnesCount64(level & mask64(size))
		pos, off, size = childIdx, off+size, nextSize
		depth++
	}
	// First 0 of the chain is at (level depth, pos): flip it, then splice a
	// 0 child in at position popcount(pos) of the next level by shifting
	// everything from the insertion point up by one.
	childIdx := bits.OnesCount64(x >> uint(off) & mask64(pos))
	x |= 1 << uint(off+pos)
	ip := off + size + childIdx
	keep := mask64(ip)
	return x&keep | x&^keep<<1, depth
}

// Dec64 decrements slot's counter, returning the new word, the depth of the
// removed chain link (the counter's previous value), and whether the
// decrement applied (false means the counter was already zero; the word is
// returned unchanged).
func Dec64(x uint64, b1, slot int) (uint64, int, bool) {
	if x>>uint(slot)&1 == 0 {
		return x, 0, false
	}
	off, size, pos, depth := 0, b1, slot, 1
	for {
		level := x >> uint(off)
		childIdx := bits.OnesCount64(level & mask64(pos))
		nextOff := off + size
		childAbs := nextOff + childIdx
		if x>>uint(childAbs)&1 == 0 {
			// (level depth, pos) is the chain's last 1: splice out its 0
			// child and clear it.
			keep := mask64(childAbs)
			x = x&keep | x>>uint(childAbs+1)<<uint(childAbs)
			x &^= 1 << uint(off+pos)
			return x, depth, true
		}
		// Descending: only now is the next level's size needed.
		pos, off = childIdx, nextOff
		size = bits.OnesCount64(level & mask64(size))
		depth++
	}
}

// Depth64 returns the number of hierarchy levels in use: the length of
// Levels64's result, walked in registers. A word's depth is at most one
// more than its popcount, since every level past the first needs a 1 in
// the level before it.
func Depth64(x uint64, b1 int) int {
	d, off, size := 1, 0, b1
	for {
		ones := bits.OnesCount64(x >> uint(off) & mask64(size))
		if ones == 0 {
			return d
		}
		off += size
		size = ones
		d++
	}
}

// Levels64 appends the hierarchy level sizes (starting with b1) to dst.
func Levels64(x uint64, b1 int, dst []int) []int {
	dst = append(dst, b1)
	off, size := 0, b1
	for {
		ones := bits.OnesCount64(x >> uint(off) & mask64(size))
		if ones == 0 {
			return dst
		}
		off += size
		size = ones
		dst = append(dst, size)
	}
}

// --- 128-bit kernel ------------------------------------------------------
//
// The w=128 variant keeps the word in two registers: lo holds bits [0,64),
// hi holds bits [64,128). The helpers below provide the same primitive set
// the 64-bit kernel gets for free from single-register shifts.

// u128Bit reports bit i of (lo, hi).
func u128Bit(lo, hi uint64, i int) bool {
	if i < 64 {
		return lo>>uint(i)&1 != 0
	}
	return hi>>uint(i-64)&1 != 0
}

// u128Ones counts the set bits in [start, end) of (lo, hi).
func u128Ones(lo, hi uint64, start, end int) int {
	c := 0
	if start < 64 {
		e := end
		if e > 64 {
			e = 64
		}
		c = bits.OnesCount64(lo >> uint(start) & mask64(e-start))
	}
	if end > 64 {
		s := start - 64
		if s < 0 {
			s = 0
		}
		c += bits.OnesCount64(hi >> uint(s) & mask64(end-64-s))
	}
	return c
}

// u128InsertZero inserts a cleared bit at pos, shifting bits [pos,128) up
// by one; bit 127 is discarded (the caller guarantees it is free).
func u128InsertZero(lo, hi uint64, pos int) (uint64, uint64) {
	if pos >= 64 {
		p := pos - 64
		keep := mask64(p)
		return lo, hi&keep | hi&^keep<<1
	}
	carry := lo >> 63
	keep := mask64(pos)
	return lo&keep | lo&^keep<<1, hi<<1 | carry
}

// u128RemoveBit deletes the bit at pos, shifting bits (pos,128) down by one
// and clearing bit 127.
func u128RemoveBit(lo, hi uint64, pos int) (uint64, uint64) {
	if pos >= 64 {
		p := pos - 64
		keep := mask64(p)
		return lo, hi&keep | hi>>uint(p+1)<<uint(p)
	}
	keep := mask64(pos)
	lo = lo&keep | lo>>uint(pos+1)<<uint(pos)
	lo = lo&^(1<<63) | hi<<63
	return lo, hi >> 1
}

// Has128 reports whether slot's counter is non-zero.
func Has128(lo, hi uint64, slot int) bool { return u128Bit(lo, hi, slot) }

// Used128 returns the number of occupied bits of the 128-bit word; see
// Used64 for why occupancy reduces to b1 plus a popcount.
func Used128(lo, hi uint64, b1 int) int {
	return b1 + bits.OnesCount64(lo) + bits.OnesCount64(hi)
}

// Count128 returns the counter value of slot.
func Count128(lo, hi uint64, b1, slot int) int {
	off, size, pos, c := 0, b1, slot, 0
	for u128Bit(lo, hi, off+pos) {
		c++
		childIdx := u128Ones(lo, hi, off, off+pos)
		nextSize := u128Ones(lo, hi, off, off+size)
		pos, off, size = childIdx, off+size, nextSize
	}
	return c
}

// Inc128 increments slot's counter; the caller must have checked
// Used128 < 128.
func Inc128(lo, hi uint64, b1, slot int) (uint64, uint64, int) {
	off, size, pos, depth := 0, b1, slot, 1
	for u128Bit(lo, hi, off+pos) {
		childIdx := u128Ones(lo, hi, off, off+pos)
		nextSize := u128Ones(lo, hi, off, off+size)
		pos, off, size = childIdx, off+size, nextSize
		depth++
	}
	childIdx := u128Ones(lo, hi, off, off+pos)
	p := off + pos
	if p < 64 {
		lo |= 1 << uint(p)
	} else {
		hi |= 1 << uint(p-64)
	}
	lo, hi = u128InsertZero(lo, hi, off+size+childIdx)
	return lo, hi, depth
}

// Dec128 decrements slot's counter; ok is false (word unchanged) when the
// counter is already zero.
func Dec128(lo, hi uint64, b1, slot int) (nlo, nhi uint64, depth int, ok bool) {
	if !u128Bit(lo, hi, slot) {
		return lo, hi, 0, false
	}
	off, size, pos := 0, b1, slot
	depth = 1
	for {
		childIdx := u128Ones(lo, hi, off, off+pos)
		nextOff := off + size
		nextSize := u128Ones(lo, hi, off, off+size)
		childAbs := nextOff + childIdx
		if !u128Bit(lo, hi, childAbs) {
			lo, hi = u128RemoveBit(lo, hi, childAbs)
			p := off + pos
			if p < 64 {
				lo &^= 1 << uint(p)
			} else {
				hi &^= 1 << uint(p-64)
			}
			return lo, hi, depth, true
		}
		pos, off, size = childIdx, nextOff, nextSize
		depth++
	}
}

// Depth128 returns the number of hierarchy levels in use of the 128-bit
// word; see Depth64.
func Depth128(lo, hi uint64, b1 int) int {
	d, off, size := 1, 0, b1
	for {
		ones := u128Ones(lo, hi, off, off+size)
		if ones == 0 {
			return d
		}
		off += size
		size = ones
		d++
	}
}

// Levels128 appends the hierarchy level sizes (starting with b1) to dst.
func Levels128(lo, hi uint64, b1 int, dst []int) []int {
	dst = append(dst, b1)
	off, size := 0, b1
	for {
		ones := u128Ones(lo, hi, off, off+size)
		if ones == 0 {
			return dst
		}
		off += size
		size = ones
		dst = append(dst, size)
	}
}
