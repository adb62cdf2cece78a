package hashing

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

// xxHash64 reference vectors computed with the canonical C implementation.
func TestXXHash64Vectors(t *testing.T) {
	cases := []struct {
		in   string
		seed uint64
		want uint64
	}{
		{"", 0, 0xef46db3751d8e999},
		{"", 1, 0xd5afba1336a3be4b},
		{"a", 0, 0xd24ec4f1a98c6e5b},
		{"abc", 0, 0x44bc2cf5ad770999},
		{"message digest", 0, 0x066ed728fceeb3be},
		{"abcdefghijklmnopqrstuvwxyz", 0, 0xcfe1f278fa89835c},
		{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789", 0, 0xaaa46907d3047814},
		{"12345678901234567890123456789012345678901234567890123456789012345678901234567890", 0, 0xe04a477f19ee145d},
	}
	for _, c := range cases {
		if got := XXHash64([]byte(c.in), c.seed); got != c.want {
			t.Errorf("XXHash64(%q, %d) = %#x, want %#x", c.in, c.seed, got, c.want)
		}
	}
}

// Murmur3 x64 128-bit reference vectors from the canonical implementation.
func TestMurmur128Vectors(t *testing.T) {
	cases := []struct {
		in     string
		seed   uint32
		h1, h2 uint64
	}{
		{"", 0, 0x0000000000000000, 0x0000000000000000},
		{"hello", 0, 0xcbd8a7b341bd9b02, 0x5b1e906a48ae1d19},
		{"hello, world", 0, 0x342fac623a5ebc8e, 0x4cdcbc079642414d},
		{"19 Jan 2038 at 3:14:07 AM", 0, 0xb89e5988b737affc, 0x664fc2950231b2cb},
		{"The quick brown fox jumps over the lazy dog.", 0, 0xcd99481f9ee902c9, 0x695da1a38987b6e7},
		{"hello", 1, 0xa78ddff5adae8d10, 0x128900ef20900135},
	}
	for _, c := range cases {
		h1, h2 := Murmur128([]byte(c.in), c.seed)
		if h1 != c.h1 || h2 != c.h2 {
			t.Errorf("Murmur128(%q, %d) = (%#x, %#x), want (%#x, %#x)",
				c.in, c.seed, h1, h2, c.h1, c.h2)
		}
	}
}

// TestMurmur128AllTails pins Murmur128 at every tail length, with and
// without full 16-byte blocks before it, against murmur128Bytes.
func TestMurmur128AllTails(t *testing.T) {
	buf := make([]byte, 48)
	for i := range buf {
		buf[i] = byte(i*131 + 7)
	}
	for _, seed := range []uint32{0, 1, 0x5bd1e995, 0x9e3779b9} {
		for n := 0; n <= len(buf); n++ {
			h1, h2 := Murmur128(buf[:n], seed)
			w1, w2 := murmur128Bytes(buf[:n], seed)
			if h1 != w1 || h2 != w2 {
				t.Errorf("Murmur128(len %d, seed %#x) = (%#x, %#x), want (%#x, %#x)", n, seed, h1, h2, w1, w2)
			}
		}
	}
}

// murmur128Bytes is MurmurHash3 x64 128 as the canonical implementation
// writes it, reading the tail one byte at a time: the oracle for
// Murmur128's word-load tail.
func murmur128Bytes(data []byte, seed uint32) (uint64, uint64) {
	n := len(data)
	h1 := uint64(seed)
	h2 := uint64(seed)
	p := data
	for len(p) >= 16 {
		k1 := le64(p[0:8])
		k2 := le64(p[8:16])
		p = p[16:]

		k1 *= mmC1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= mmC2
		h1 ^= k1
		h1 = bits.RotateLeft64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= mmC2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= mmC1
		h2 ^= k2
		h2 = bits.RotateLeft64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	var k1, k2 uint64
	switch len(p) & 15 {
	case 15:
		k2 ^= uint64(p[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(p[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(p[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(p[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(p[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(p[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(p[8])
		k2 *= mmC2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= mmC1
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(p[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(p[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(p[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(p[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(p[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(p[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(p[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(p[0])
		k1 *= mmC1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= mmC2
		h1 ^= k1
	}

	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

func TestXXHash64AllLengths(t *testing.T) {
	// Exercise every tail-length code path 0..64 and confirm determinism
	// plus sensitivity to each byte.
	buf := make([]byte, 65)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	seen := make(map[uint64]int)
	for n := 0; n <= 64; n++ {
		h := XXHash64(buf[:n], 42)
		if h2 := XXHash64(buf[:n], 42); h2 != h {
			t.Fatalf("nondeterministic at len %d", n)
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision between lengths %d and %d", prev, n)
		}
		seen[h] = n
	}
}

func TestMurmurByteSensitivity(t *testing.T) {
	base := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	h1, h2 := Murmur128(base, 0)
	for i := range base {
		mod := append([]byte(nil), base...)
		mod[i] ^= 1
		m1, m2 := Murmur128(mod, 0)
		if m1 == h1 && m2 == h2 {
			t.Fatalf("flipping byte %d did not change hash", i)
		}
	}
}

func TestReduceRange(t *testing.T) {
	f := func(x uint64, nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		r := Reduce(x, n)
		return r >= 0 && r < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceUniformity(t *testing.T) {
	// Chi-squared style sanity: reducing sequential splitmix outputs onto
	// 16 buckets should be near-uniform.
	const buckets, samples = 16, 1 << 16
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[Reduce(SplitMix64(uint64(i)), buckets)]++
	}
	expect := float64(samples) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > expect*0.1 {
			t.Errorf("bucket %d has %d samples, expected ~%.0f", b, c, expect)
		}
	}
}

func TestIndexStreamDeterminismAndSeparation(t *testing.T) {
	h := NewHasher(7)
	s1 := h.NewIndexStream([]byte("key"))
	s2 := h.NewIndexStream([]byte("key"))
	for i := 0; i < 8; i++ {
		if s1.Word(i, 1000) != s2.Word(i, 1000) || s1.Slot(i, 64) != s2.Slot(i, 64) {
			t.Fatal("index stream not deterministic")
		}
	}
	// Word and slot channels must differ (with overwhelming probability
	// over several draws) even for equal ranges.
	same := 0
	for i := 0; i < 16; i++ {
		if s1.Word(i, 1<<30) == s1.Slot(i, 1<<30) {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("word and slot channels correlated: %d equal of 16", same)
	}
}

func TestIndexStreamSeedSensitivity(t *testing.T) {
	a := NewHasher(1).NewIndexStream([]byte("key"))
	b := NewHasher(2).NewIndexStream([]byte("key"))
	diff := false
	for i := 0; i < 4; i++ {
		if a.Word(i, 1<<30) != b.Word(i, 1<<30) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitKEven(t *testing.T) {
	cases := []struct {
		k, g int
		want []int
	}{
		{3, 1, []int{3}},
		{3, 2, []int{2, 1}},
		{4, 2, []int{2, 2}},
		{5, 2, []int{3, 2}},
		{5, 3, []int{2, 2, 1}},
		{7, 3, []int{3, 3, 1}},
		{1, 1, []int{1}},
		{12, 4, []int{3, 3, 3, 3}},
	}
	for _, c := range cases {
		got := SplitKEven(c.k, c.g)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("SplitKEven(%d,%d) = %v, want %v", c.k, c.g, got, c.want)
		}
		sum := 0
		for _, v := range got {
			sum += v
		}
		if sum != c.k {
			t.Errorf("SplitKEven(%d,%d) sums to %d", c.k, c.g, sum)
		}
	}
}

func TestSplitKEvenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k=0")
		}
	}()
	SplitKEven(0, 2)
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(100)
	if a.Uint64() == c.Uint64() {
		t.Fatal("different seeds produced same stream start")
	}
}

func TestRNGIntnAndFloat(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGShuffleIsPermutation(t *testing.T) {
	r := NewRNG(8)
	xs := make([]int, 50)
	for i := range xs {
		xs[i] = i
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		if seen[x] {
			t.Fatalf("duplicate %d after shuffle", x)
		}
		seen[x] = true
	}
	if len(seen) != 50 {
		t.Fatal("shuffle lost elements")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(1)
	f := r.Fork()
	if r.Uint64() == f.Uint64() {
		t.Fatal("fork mirrors parent")
	}
}

func TestDerivedSpread(t *testing.T) {
	// Derived hashes for consecutive i must not collide for a random base.
	h1, h2 := Murmur128([]byte("spread"), 0)
	seen := make(map[uint64]bool)
	for i := 0; i < 256; i++ {
		d := Derived(h1, h2, i)
		if seen[d] {
			t.Fatalf("derived collision at i=%d", i)
		}
		seen[d] = true
	}
}
