// Package bitvec provides packed bit vectors and 4-bit counter vectors used
// as the storage substrate for every filter in this repository.
//
// The central primitives beyond ordinary get/set are range popcount and
// in-range bit insertion/removal (ShiftRightOne / ShiftLeftOne), which the
// hierarchical counting Bloom filter (internal/hcbf) uses to grow and shrink
// hierarchy levels inside a single machine word.
package bitvec

import (
	"fmt"
	"math/bits"
	"os"
	"strings"
	"unsafe"
)

// pageWords is the system page size in 64-bit words.
var pageWords = os.Getpagesize() / 8

// pageOffset returns the index of words[0] within its page, in words; 0
// for an empty slice.
func pageOffset(words []uint64) int {
	if len(words) == 0 {
		return 0
	}
	return int(uintptr(unsafe.Pointer(&words[0])) / 8 % uintptr(pageWords))
}

// PageRun returns how many leading words of words share the page that
// holds words[0], at most len(words). Cutting a slice into runs of
// PageRun words, one after another, cuts it at page boundaries.
func PageRun(words []uint64) int { return min(len(words), pageWords-pageOffset(words)) }

// Vector is a fixed-length bit vector backed by a []uint64. Bit i of the
// vector is bit (i%64) of word i/64. The zero value is an empty vector;
// use New to allocate a sized one.
type Vector struct {
	words []uint64
	n     int
}

// New returns a zeroed bit vector of n bits.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+63)/64), n: n}
}

// FromWords returns an n-bit vector over words, which must hold exactly
// the (n+63)/64 words New would allocate. The vector keeps words as its
// storage, whatever they hold; since Reset hands them to Zero, they must
// come from make.
func FromWords(words []uint64, n int) *Vector {
	if n < 0 || len(words) != (n+63)/64 {
		panic(fmt.Sprintf("bitvec: %d words for %d bits", len(words), n))
	}
	return &Vector{words: words, n: n}
}

// Len returns the length of the vector in bits.
func (v *Vector) Len() int { return v.n }

// Words exposes the backing storage. It is used by benchmarks to account
// memory; callers must not resize it.
func (v *Vector) Words() []uint64 { return v.words }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i to b.
func (v *Vector) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		v.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Uint64At returns the 64 bits starting at bit offset off as a uint64 (bit
// off+i of the vector is bit i of the result). off must be 64-bit aligned
// and the window must lie inside the vector. This is the load half of the
// register-resident HCBF word kernel: one aligned load replaces a per-bit
// Get loop. The body is deliberately small enough to inline into hot query
// loops; the backing-slice bounds check covers the range check.
func (v *Vector) Uint64At(off int) uint64 {
	if off&63 != 0 {
		panic("bitvec: unaligned uint64 window")
	}
	return v.words[off>>6]
}

// SetUint64At stores w into the 64 bits starting at bit offset off, the
// store half of the word kernel. Same contract as Uint64At.
func (v *Vector) SetUint64At(off int, w uint64) {
	if off&63 != 0 {
		panic("bitvec: unaligned uint64 window")
	}
	v.words[off>>6] = w
}

// Ones returns the number of set bits in [start, end).
func (v *Vector) Ones(start, end int) int {
	if start < 0 || end > v.n || start > end {
		panic(fmt.Sprintf("bitvec: bad range [%d,%d) of %d", start, end, v.n))
	}
	if start == end {
		return 0
	}
	fw, lw := start>>6, (end-1)>>6
	if fw == lw {
		w := v.words[fw] >> (uint(start) & 63)
		return bits.OnesCount64(w & lowMask(end-start))
	}
	total := bits.OnesCount64(v.words[fw] >> (uint(start) & 63))
	for i := fw + 1; i < lw; i++ {
		total += bits.OnesCount64(v.words[i])
	}
	total += bits.OnesCount64(v.words[lw] & lowMask(end-lw*64))
	return total
}

// lowMask returns a mask with the low k bits set, for 1 <= k <= 64.
func lowMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(k)) - 1
}

// rangeMask returns the mask of bits of word index wi that fall inside the
// vector range [start, end).
func rangeMask(wi, start, end int) uint64 {
	mask := ^uint64(0)
	if lo := start - wi*64; lo > 0 {
		mask &= ^uint64(0) << uint(lo)
	}
	if hi := end - wi*64; hi < 64 {
		mask &= lowMask(hi)
	}
	return mask
}

// ShiftRightOne shifts the bits of [start, end) right (toward higher
// indices) by one position: the bit previously at i moves to i+1 for
// start <= i < end-1, the bit previously at end-1 is discarded, and the
// vacated bit at start is cleared. Bits outside the range are untouched.
func (v *Vector) ShiftRightOne(start, end int) {
	if start < 0 || end > v.n || start > end {
		panic(fmt.Sprintf("bitvec: bad range [%d,%d) of %d", start, end, v.n))
	}
	if end-start <= 1 {
		if end > start {
			v.Set(start, false)
		}
		return
	}
	fw, lw := start>>6, (end-1)>>6
	carry := uint64(0)
	for i := fw; i <= lw; i++ {
		w := v.words[i]
		shifted := w<<1 | carry
		carry = w >> 63
		mask := rangeMask(i, start, end)
		v.words[i] = w&^mask | shifted&mask
	}
	v.Set(start, false)
}

// ShiftLeftOne shifts the bits of [start, end) left (toward lower indices)
// by one position: the bit previously at i moves to i-1 for
// start < i < end, the bit previously at start is discarded, and the
// vacated bit at end-1 is cleared. Bits outside the range are untouched.
func (v *Vector) ShiftLeftOne(start, end int) {
	if start < 0 || end > v.n || start > end {
		panic(fmt.Sprintf("bitvec: bad range [%d,%d) of %d", start, end, v.n))
	}
	if end-start <= 1 {
		if end > start {
			v.Set(start, false)
		}
		return
	}
	fw, lw := start>>6, (end-1)>>6
	carry := uint64(0)
	for i := lw; i >= fw; i-- {
		w := v.words[i]
		shifted := w>>1 | carry<<63
		carry = w & 1
		mask := rangeMask(i, start, end)
		v.words[i] = w&^mask | shifted&mask
	}
	v.Set(end-1, false)
}

// InsertZero inserts a cleared bit at position pos within the window
// [pos, windowEnd): bits [pos, windowEnd-1) move right by one and the bit
// previously at windowEnd-1 is discarded. The caller is responsible for
// ensuring the discarded bit is not meaningful (the HCBF layer tracks word
// occupancy so the last bit is always zero when space remains).
func (v *Vector) InsertZero(pos, windowEnd int) {
	v.ShiftRightOne(pos, windowEnd)
}

// InsertOne inserts a set bit at position pos within [pos, windowEnd),
// shifting the tail right as InsertZero does.
func (v *Vector) InsertOne(pos, windowEnd int) {
	v.ShiftRightOne(pos, windowEnd)
	v.Set(pos, true)
}

// RemoveBit deletes the bit at position pos within the window
// [pos, windowEnd): bits (pos, windowEnd) move left by one and the vacated
// bit at windowEnd-1 is cleared.
func (v *Vector) RemoveBit(pos, windowEnd int) {
	v.ShiftLeftOne(pos, windowEnd)
}

// Reset clears every bit, handing the whole pages of the vector's
// storage back to the kernel (Zero).
func (v *Vector) Reset() { Zero(v.words) }

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return &Vector{words: w, n: v.n}
}

// Equal reports whether v and o have identical length and contents.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// String renders the vector as a bit string, lowest index first. Intended
// for tests and debugging on short vectors.
func (v *Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// SizeBits returns the allocated storage in bits (a multiple of 64).
func (v *Vector) SizeBits() int { return len(v.words) * 64 }
