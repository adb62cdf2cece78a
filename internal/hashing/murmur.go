package hashing

import "math/bits"

const (
	mmC1 = 0x87c37b91114253d5
	mmC2 = 0x4cf5ad432745937f
)

// Murmur128 computes the x64 variant of MurmurHash3 (128-bit) of data with
// the given seed, returning the two 64-bit halves. The pair serves as the
// base of every double-hashed index stream in this repository.
func Murmur128(data []byte, seed uint32) (uint64, uint64) {
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

	if len(p) > 8 {
		k2 := leTail(p[8:])
		k2 *= mmC2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= mmC1
		h2 ^= k2
	}
	if len(p) > 0 {
		k1 := leTail(p)
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

// leTail returns the first min(len(b), 8) bytes of b as a little-endian
// integer. Below 8 bytes it ORs two overlapping loads, whose shared bytes
// land on the same bits, instead of loading one byte at a time.
func leTail(b []byte) uint64 {
	switch n := len(b); {
	case n >= 8:
		return le64(b)
	case n >= 4:
		return uint64(le32(b)) | uint64(le32(b[n-4:]))<<(8*(n-4))
	case n >= 2:
		return uint64(le16(b)) | uint64(le16(b[n-2:]))<<(8*(n-2))
	case n == 1:
		return uint64(b[0])
	}
	return 0
}

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
