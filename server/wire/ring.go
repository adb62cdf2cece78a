package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Ring is the cluster membership descriptor resharding pushes to every
// node (protocol version 4). Epochs totally order descriptors: a node
// or client adopts a pushed ring only if its epoch is newer than what
// it holds. Joint marks the dual-write window — clients write to the
// key's owner under Old AND under New and ack only when both succeed,
// while reads OR both owners; a stable ring (Joint false) carries the
// same membership in Old and New.
//
// Wire encoding:
//
//	[u64 epoch][u8 joint][u16 nOld]([u8 len][addr])*nOld
//	[u16 nNew]([u8 len][addr])*nNew
type Ring struct {
	Epoch uint64
	Joint bool
	Old   []string // rendezvous members before the change
	New   []string // rendezvous members after the change
}

// MaxRingNodes bounds the member count of one ring side — far above any
// plausible deployment, tight enough to reject garbage frames.
const MaxRingNodes = 1024

// AppendRing encodes a ring descriptor.
func AppendRing(dst []byte, r Ring) []byte {
	dst = appendU64(dst, r.Epoch)
	dst = AppendBool(dst, r.Joint)
	for _, side := range [2][]string{r.Old, r.New} {
		dst = append(dst, byte(len(side)), byte(len(side)>>8))
		for _, addr := range side {
			dst = append(dst, byte(len(addr)))
			dst = append(dst, addr...)
		}
	}
	return dst
}

// DecodeRing parses a ring descriptor from the start of b and returns
// the remaining bytes. The addr strings are copies, safe to retain.
func DecodeRing(b []byte) (Ring, []byte, error) {
	if len(b) < 9 {
		return Ring{}, nil, errors.New("truncated ring header")
	}
	if b[8] > 1 {
		return Ring{}, nil, fmt.Errorf("ring joint flag %d, want 0 or 1", b[8])
	}
	r := Ring{
		Epoch: binary.LittleEndian.Uint64(b[0:8]),
		Joint: b[8] == 1,
	}
	b = b[9:]
	for side := 0; side < 2; side++ {
		if len(b) < 2 {
			return Ring{}, nil, errors.New("truncated ring member count")
		}
		n := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if n > MaxRingNodes {
			return Ring{}, nil, fmt.Errorf("ring member count %d exceeds %d", n, MaxRingNodes)
		}
		addrs := make([]string, 0, n)
		for i := 0; i < n; i++ {
			if len(b) < 1 {
				return Ring{}, nil, errors.New("truncated ring member length")
			}
			l := int(b[0])
			b = b[1:]
			if l == 0 || l > len(b) {
				return Ring{}, nil, fmt.Errorf("ring member length %d invalid for %d remaining bytes", l, len(b))
			}
			addrs = append(addrs, string(b[:l]))
			b = b[l:]
		}
		if side == 0 {
			r.Old = addrs
		} else {
			r.New = addrs
		}
	}
	return r, b, nil
}

// ElasticGenStats is one generation of an ELASTIC_STATS response.
type ElasticGenStats struct {
	Items      uint64
	Capacity   uint64 // 0 for imported generations
	FillRatio  float64
	Budget     float64 // generation's slice of the chain FPR bound
	MemoryBits uint64
	Imported   bool
}

// ElasticStats is the decoded ELASTIC_STATS response body: the shape of
// an elastic chain, oldest generation first (last entry is the head).
type ElasticStats struct {
	Grows     uint32
	Imports   uint64
	TargetFPR float64
	Gens      []ElasticGenStats
}

const elasticGenStatsSize = 8 + 8 + 8 + 8 + 8 + 1

// AppendElasticStats encodes an ELASTIC_STATS response body.
func AppendElasticStats(dst []byte, s ElasticStats) []byte {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(s.Gens)))
	dst = append(dst, u32[:]...)
	binary.LittleEndian.PutUint32(u32[:], s.Grows)
	dst = append(dst, u32[:]...)
	dst = appendU64(dst, s.Imports)
	dst = appendU64(dst, math.Float64bits(s.TargetFPR))
	for _, g := range s.Gens {
		dst = appendU64(dst, g.Items)
		dst = appendU64(dst, g.Capacity)
		dst = appendU64(dst, math.Float64bits(g.FillRatio))
		dst = appendU64(dst, math.Float64bits(g.Budget))
		dst = appendU64(dst, g.MemoryBits)
		dst = AppendBool(dst, g.Imported)
	}
	return dst
}

// DecodeElasticStats parses an ELASTIC_STATS response body.
func DecodeElasticStats(body []byte) (ElasticStats, error) {
	const hdr = 4 + 4 + 8 + 8
	if len(body) < hdr {
		return ElasticStats{}, errors.New("wire: truncated elastic_stats response")
	}
	n := int(binary.LittleEndian.Uint32(body[0:4]))
	s := ElasticStats{
		Grows:     binary.LittleEndian.Uint32(body[4:8]),
		Imports:   binary.LittleEndian.Uint64(body[8:16]),
		TargetFPR: math.Float64frombits(binary.LittleEndian.Uint64(body[16:24])),
	}
	rest := body[hdr:]
	if uint64(len(rest)) != uint64(n)*elasticGenStatsSize {
		return ElasticStats{}, fmt.Errorf("wire: elastic_stats: %d trailing bytes for %d generations", len(rest), n)
	}
	s.Gens = make([]ElasticGenStats, n)
	for i := range s.Gens {
		b := rest[i*elasticGenStatsSize:]
		s.Gens[i] = ElasticGenStats{
			Items:      binary.LittleEndian.Uint64(b[0:8]),
			Capacity:   binary.LittleEndian.Uint64(b[8:16]),
			FillRatio:  math.Float64frombits(binary.LittleEndian.Uint64(b[16:24])),
			Budget:     math.Float64frombits(binary.LittleEndian.Uint64(b[24:32])),
			MemoryBits: binary.LittleEndian.Uint64(b[32:40]),
			Imported:   b[40] != 0,
		}
	}
	return s, nil
}
