package bitvec

import "fmt"

// CounterWidth is the counter width used by the standard CBF and PCBF:
// four bits per counter, the value the paper (and Fan et al.) identify as
// sufficient for most applications.
const CounterWidth = 4

// CounterMax is the saturation value of a 4-bit counter.
const CounterMax = (1 << CounterWidth) - 1

// Counters is a vector of packed 4-bit saturating counters. Counters that
// reach CounterMax stick there: further increments and decrements leave
// them unchanged, the standard defence against counter overflow corrupting
// membership (at the price of possible stale positives).
type Counters struct {
	words []uint64
	n     int
	// sticky counts how many counters are currently saturated; exposed for
	// experiment sanity checks.
	sticky int
}

// NewCounters returns n zeroed 4-bit counters.
func NewCounters(n int) *Counters {
	if n < 0 {
		panic("bitvec: negative counter count")
	}
	return &Counters{words: make([]uint64, (n+15)/16), n: n}
}

// Len returns the number of counters.
func (c *Counters) Len() int { return c.n }

func (c *Counters) check(i int) {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("bitvec: counter %d out of range [0,%d)", i, c.n))
	}
}

// Get returns the value of counter i.
func (c *Counters) Get(i int) uint8 {
	c.check(i)
	return uint8(c.words[i>>4] >> ((uint(i) & 15) * 4) & 0xF)
}

func (c *Counters) put(i int, val uint8) {
	shift := (uint(i) & 15) * 4
	c.words[i>>4] = c.words[i>>4]&^(0xF<<shift) | uint64(val&0xF)<<shift
}

// Inc increments counter i, saturating at CounterMax. It reports whether
// the counter saturated as a result of (or despite) this increment.
func (c *Counters) Inc(i int) (saturated bool) {
	v := c.Get(i)
	if v == CounterMax {
		return true
	}
	v++
	if v == CounterMax {
		c.sticky++
		saturated = true
	}
	c.put(i, v)
	return saturated
}

// Dec decrements counter i. Saturated counters stay saturated; decrementing
// a zero counter is reported as underflow and leaves the counter at zero.
func (c *Counters) Dec(i int) (underflow bool) {
	v := c.Get(i)
	switch v {
	case 0:
		return true
	case CounterMax:
		return false // sticky
	}
	c.put(i, v-1)
	return false
}

// Saturated returns how many counters are currently stuck at CounterMax.
func (c *Counters) Saturated() int { return c.sticky }

// Reset zeroes all counters, handing the whole pages of their storage
// back to the kernel (Zero).
func (c *Counters) Reset() {
	Zero(c.words)
	c.sticky = 0
}

// SizeBits returns the allocated storage in bits.
func (c *Counters) SizeBits() int { return len(c.words) * 64 }
