// Package hashing implements the hash-function substrate shared by every
// filter: a from-scratch xxHash64 and Murmur3 (x64, 128-bit), double-hashed
// index streams in the Kirsch–Mitzenmacher style, and deterministic
// pseudo-random generators (splitmix64, xoshiro256**) for workload
// synthesis. Only the standard library is used.
package hashing

import "math/bits"

const (
	xxPrime1 = 0x9E3779B185EBCA87
	xxPrime2 = 0xC2B2AE3D27D4EB4F
	xxPrime3 = 0x165667B19E3779F9
	xxPrime4 = 0x85EBCA77C2B2AE63
	xxPrime5 = 0x27D4EB2F165667C5
)

// XXHash64 computes the 64-bit xxHash of data with the given seed.
func XXHash64(data []byte, seed uint64) uint64 {
	n := len(data)
	var h uint64
	p := data
	if n >= 32 {
		v1 := seed + xxPrime1 + xxPrime2
		v2 := seed + xxPrime2
		v3 := seed
		v4 := seed - xxPrime1
		for len(p) >= 32 {
			v1 = xxRound(v1, le64(p[0:8]))
			v2 = xxRound(v2, le64(p[8:16]))
			v3 = xxRound(v3, le64(p[16:24]))
			v4 = xxRound(v4, le64(p[24:32]))
			p = p[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxMergeRound(h, v1)
		h = xxMergeRound(h, v2)
		h = xxMergeRound(h, v3)
		h = xxMergeRound(h, v4)
	} else {
		h = seed + xxPrime5
	}
	h += uint64(n)
	for len(p) >= 8 {
		h ^= xxRound(0, le64(p[0:8]))
		h = bits.RotateLeft64(h, 27)*xxPrime1 + xxPrime4
		p = p[8:]
	}
	if len(p) >= 4 {
		h ^= uint64(le32(p[0:4])) * xxPrime1
		h = bits.RotateLeft64(h, 23)*xxPrime2 + xxPrime3
		p = p[4:]
	}
	for _, b := range p {
		h ^= uint64(b) * xxPrime5
		h = bits.RotateLeft64(h, 11) * xxPrime1
	}
	h ^= h >> 33
	h *= xxPrime2
	h ^= h >> 29
	h *= xxPrime3
	h ^= h >> 32
	return h
}

func xxRound(acc, input uint64) uint64 {
	acc += input * xxPrime2
	acc = bits.RotateLeft64(acc, 31)
	return acc * xxPrime1
}

func xxMergeRound(acc, val uint64) uint64 {
	acc ^= xxRound(0, val)
	return acc*xxPrime1 + xxPrime4
}

func le64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le16(b []byte) uint16 {
	_ = b[1]
	return uint16(b[0]) | uint16(b[1])<<8
}

func le32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
