package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refVector is a trivially correct []bool model used to cross-check the
// packed implementation.
type refVector []bool

func (r refVector) ones(start, end int) int {
	n := 0
	for i := start; i < end; i++ {
		if r[i] {
			n++
		}
	}
	return n
}

func (r refVector) shiftRightOne(start, end int) {
	if end-start <= 1 {
		if end > start {
			r[start] = false
		}
		return
	}
	for i := end - 1; i > start; i-- {
		r[i] = r[i-1]
	}
	r[start] = false
}

func (r refVector) shiftLeftOne(start, end int) {
	if end-start <= 1 {
		if end > start {
			r[start] = false
		}
		return
	}
	for i := start; i < end-1; i++ {
		r[i] = r[i+1]
	}
	r[end-1] = false
}

func (r refVector) equal(v *Vector) bool {
	if len(r) != v.Len() {
		return false
	}
	for i, b := range r {
		if v.Get(i) != b {
			return false
		}
	}
	return true
}

func randomPair(rng *rand.Rand, n int) (*Vector, refVector) {
	v := New(n)
	r := make(refVector, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i, true)
			r[i] = true
		}
	}
	return v, r
}

func TestGetSet(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i, true)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		v.Set(i, false)
		if v.Get(i) {
			t.Fatalf("bit %d set after clear", i)
		}
	}
}

func TestSetDoesNotDisturbNeighbors(t *testing.T) {
	v := New(192)
	for i := 0; i < 192; i += 2 {
		v.Set(i, true)
	}
	for i := 0; i < 192; i++ {
		want := i%2 == 0
		if v.Get(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, v.Get(i), want)
		}
	}
}

func TestOnesSmall(t *testing.T) {
	v := New(16)
	for _, i := range []int{1, 3, 5, 10, 15} {
		v.Set(i, true)
	}
	cases := []struct{ start, end, want int }{
		{0, 16, 5}, {0, 0, 0}, {1, 2, 1}, {0, 1, 0},
		{2, 6, 2}, {11, 15, 0}, {15, 16, 1}, {5, 5, 0},
	}
	for _, c := range cases {
		if got := v.Ones(c.start, c.end); got != c.want {
			t.Errorf("Ones(%d,%d) = %d, want %d", c.start, c.end, got, c.want)
		}
	}
}

func TestOnesCrossWord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v, r := randomPair(rng, 300)
	for trial := 0; trial < 2000; trial++ {
		a := rng.Intn(301)
		b := a + rng.Intn(301-a)
		if got, want := v.Ones(a, b), r.ones(a, b); got != want {
			t.Fatalf("Ones(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestShiftRightOneBasic(t *testing.T) {
	v := New(8)
	v.Set(0, true)
	v.Set(2, true)
	v.ShiftRightOne(0, 8)
	if got, want := v.String(), "01010000"; got != want {
		t.Fatalf("after shift right: %s, want %s", got, want)
	}
}

func TestShiftLeftOneBasic(t *testing.T) {
	v := New(8)
	v.Set(1, true)
	v.Set(3, true)
	v.ShiftLeftOne(0, 8)
	if got, want := v.String(), "10100000"; got != want {
		t.Fatalf("after shift left: %s, want %s", got, want)
	}
}

func TestShiftPreservesOutsideRange(t *testing.T) {
	v := New(64)
	for i := 0; i < 64; i++ {
		v.Set(i, true)
	}
	v.ShiftRightOne(10, 20)
	for i := 0; i < 64; i++ {
		want := i != 10
		if v.Get(i) != want {
			t.Fatalf("bit %d = %v after ShiftRightOne(10,20)", i, v.Get(i))
		}
	}
	v2 := New(64)
	for i := 0; i < 64; i++ {
		v2.Set(i, true)
	}
	v2.ShiftLeftOne(10, 20)
	for i := 0; i < 64; i++ {
		want := i != 19
		if v2.Get(i) != want {
			t.Fatalf("bit %d = %v after ShiftLeftOne(10,20)", i, v2.Get(i))
		}
	}
}

func TestShiftAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(260)
		v, r := randomPair(rng, n)
		a := rng.Intn(n)
		b := a + rng.Intn(n-a+1)
		if rng.Intn(2) == 0 {
			v.ShiftRightOne(a, b)
			r.shiftRightOne(a, b)
		} else {
			v.ShiftLeftOne(a, b)
			r.shiftLeftOne(a, b)
		}
		if !r.equal(v) {
			t.Fatalf("trial %d: mismatch after shift [%d,%d) n=%d\n got  %s", trial, a, b, n, v.String())
		}
	}
}

func TestInsertRemoveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 8 + rng.Intn(200)
		v, _ := randomPair(rng, n)
		// Guarantee the last bit is zero so InsertZero loses nothing.
		v.Set(n-1, false)
		before := v.Clone()
		pos := rng.Intn(n)
		v.InsertZero(pos, n)
		if v.Get(pos) {
			t.Fatalf("InsertZero left a set bit at %d", pos)
		}
		v.RemoveBit(pos, n)
		if !v.Equal(before) {
			t.Fatalf("trial %d: insert+remove at %d not identity\nwant %s\n got %s",
				trial, pos, before.String(), v.String())
		}
	}
}

func TestInsertOne(t *testing.T) {
	v := New(8)
	v.Set(0, true)
	v.Set(1, true)
	v.InsertOne(1, 8)
	if got, want := v.String(), "11100000"; got != want {
		t.Fatalf("InsertOne: %s, want %s", got, want)
	}
}

func TestShiftIsLocalInsertion(t *testing.T) {
	// Property: ShiftRightOne(p, end) followed by reading bits equals the
	// reference "insert a zero" semantics.
	f := func(seed int64, posRaw, nRaw uint8) bool {
		n := 2 + int(nRaw)%150
		pos := int(posRaw) % n
		rng := rand.New(rand.NewSource(seed))
		v, r := randomPair(rng, n)
		v.ShiftRightOne(pos, n)
		r.shiftRightOne(pos, n)
		return r.equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOnesAfterShiftInvariant(t *testing.T) {
	// Shifting right within a window whose last bit is clear preserves the
	// total popcount of the window.
	f := func(seed int64, posRaw, nRaw uint8) bool {
		n := 2 + int(nRaw)%150
		pos := int(posRaw) % n
		rng := rand.New(rand.NewSource(seed))
		v, _ := randomPair(rng, n)
		v.Set(n-1, false)
		before := v.Ones(0, n)
		v.ShiftRightOne(pos, n)
		return v.Ones(0, n) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneEqualIndependent(t *testing.T) {
	v := New(100)
	v.Set(42, true)
	c := v.Clone()
	if !v.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(7, true)
	if v.Get(7) {
		t.Fatal("clone shares storage with original")
	}
	if v.Equal(c) {
		t.Fatal("Equal failed to detect difference")
	}
}

func TestResetClearsAll(t *testing.T) {
	v := New(129)
	for i := 0; i < 129; i += 3 {
		v.Set(i, true)
	}
	v.Reset()
	if v.Ones(0, 129) != 0 {
		t.Fatal("Reset left set bits")
	}
}

// TestZeroKeepsNeighbours zeroes sub-slices of a multi-page slice that
// start and end anywhere in a page, and none, one or several whole
// pages: every word inside reads zero afterwards, every word outside
// keeps its value, and PageRun cuts each at page boundaries.
func TestZeroKeepsNeighbours(t *testing.T) {
	words := make([]uint64, 5*pageWords+3)
	for _, c := range []struct{ lo, hi int }{
		{0, len(words)},
		{1, len(words) - 1},
		{pageWords - 1, 3*pageWords + 1},
		{pageWords, 3 * pageWords},
		{7, 9},
		{2*pageWords + 5, 2*pageWords + 5},
		{3, pageWords + 2},
	} {
		for i := range words {
			words[i] = uint64(i) | 1<<63
		}
		part := words[c.lo:c.hi]
		for rest, runs := part, 0; len(rest) > 0; runs++ {
			n := PageRun(rest)
			if n < 1 || runs > 0 && n != min(pageWords, len(rest)) {
				t.Fatalf("[%d,%d): run %d is %d words", c.lo, c.hi, runs, n)
			}
			rest = rest[n:]
		}
		Zero(part)
		for i, x := range words {
			inside := i >= c.lo && i < c.hi
			if inside && x != 0 || !inside && x != uint64(i)|1<<63 {
				t.Fatalf("Zero of [%d,%d): word %d = %#x", c.lo, c.hi, i, x)
			}
		}
	}
}

func TestEdgeRanges(t *testing.T) {
	v := New(64)
	v.Set(63, true)
	if v.Ones(63, 64) != 1 {
		t.Fatal("Ones on final bit")
	}
	v.ShiftRightOne(63, 64) // single-bit range clears
	if v.Get(63) {
		t.Fatal("single-bit shift right should clear")
	}
	v.Set(63, true)
	v.ShiftLeftOne(63, 64)
	if v.Get(63) {
		t.Fatal("single-bit shift left should clear")
	}
	v.ShiftRightOne(5, 5) // empty range is a no-op
}

func TestPanicsOnBadIndex(t *testing.T) {
	v := New(10)
	for _, f := range []func(){
		func() { v.Get(-1) },
		func() { v.Get(10) },
		func() { v.Set(10, true) },
		func() { v.Ones(-1, 5) },
		func() { v.Ones(3, 11) },
		func() { v.Ones(5, 4) },
		func() { v.ShiftRightOne(0, 11) },
		func() { v.ShiftLeftOne(-1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestStringRendering(t *testing.T) {
	v := New(4)
	v.Set(1, true)
	v.Set(3, true)
	if got := v.String(); got != "0101" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSizeBits(t *testing.T) {
	if got := New(1).SizeBits(); got != 64 {
		t.Fatalf("SizeBits(1) = %d", got)
	}
	if got := New(65).SizeBits(); got != 128 {
		t.Fatalf("SizeBits(65) = %d", got)
	}
}
