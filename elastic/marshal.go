package elastic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	mpcbf "repro"
	"repro/internal/snapio"
)

// Chain snapshot format (all little-endian), fully self-describing so
// UnmarshalFilter needs no out-of-band Options:
//
//	[u32 magic "MPCE"] [u32 version]
//	[u64 seed memoryBits] [u64 seed expectedItems]
//	[u8 k] [u8 g] [u8 wordBits] [u32 hash seed] [u16 shards]
//	[f64 targetFPR] [u32 growthFactor] [f64 tighteningRatio] [f64 growAt]
//	[u16 maxGenerations]
//	[u32 grows] [u64 imports] [u32 nGens]
//	per generation (oldest first):
//	  [u8 imported] [u32 growIdx] [u64 capacity] [f64 budget]
//	  [u32 blobLen] [Sharded snapshot blob]
//
// The per-generation Sharded blobs embed their own geometry and seeds,
// so a decoded chain is byte-for-byte re-marshalable.
const (
	elasticMagic   = 0x4D504345 // "ECPM" little-endian
	elasticVersion = 1

	headerSize = 4 + 4 + 8 + 8 + 3 + 4 + 2 + 8 + 4 + 8 + 8 + 2 + 4 + 8 + 4
	genHdrSize = 1 + 4 + 8 + 8 + 4
)

// IsElastic reports whether data begins with the elastic chain magic.
func IsElastic(data []byte) bool {
	return len(data) >= 4 && binary.LittleEndian.Uint32(data) == elasticMagic
}

// MarshalBinary snapshots the whole chain into one buffer sized up front.
func (f *Filter) MarshalBinary() (buf []byte, err error) {
	f.View(func(gens []*mpcbf.Sharded) {
		size := headerSize
		for _, s := range gens {
			size += genHdrSize + s.MarshaledSize()
		}
		buf = make([]byte, 0, size)
		o := f.opts
		buf = binary.LittleEndian.AppendUint32(buf, elasticMagic)
		buf = binary.LittleEndian.AppendUint32(buf, elasticVersion)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Filter.MemoryBits))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Filter.ExpectedItems))
		buf = append(buf, byte(o.Filter.HashFunctions), byte(o.Filter.MemoryAccesses), byte(o.Filter.WordBits))
		buf = binary.LittleEndian.AppendUint32(buf, o.Filter.Seed)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(o.Shards))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.TargetFPR))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.GrowthFactor))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.TighteningRatio))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(o.GrowAt))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(o.MaxGenerations))
		buf = binary.LittleEndian.AppendUint32(buf, f.grows)
		buf = binary.LittleEndian.AppendUint64(buf, f.imports)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(gens)))
		for i, s := range gens {
			g := f.gens[i]
			var imp byte
			if g.imported {
				imp = 1
			}
			buf = append(buf, imp)
			buf = binary.LittleEndian.AppendUint32(buf, g.growIdx)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(g.capacity))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.budget))
			at := len(buf)
			buf = append(buf, 0, 0, 0, 0)
			if buf, err = s.AppendBinary(buf); err != nil {
				buf, err = nil, fmt.Errorf("elastic: marshal generation %d: %w", i, err)
				return
			}
			binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
		}
	})
	return buf, err
}

// UnmarshalFilter reconstructs a chain from a MarshalBinary snapshot.
func UnmarshalFilter(data []byte) (*Filter, error) {
	return ReadFilter(bytes.NewReader(data), int64(len(data)))
}

// ReadFilter is UnmarshalFilter over a stream: it decodes exactly n bytes
// of r, holding one 64 KiB buffer besides the decoded chain.
func ReadFilter(r io.Reader, n int64) (*Filter, error) {
	rd := snapio.From(r, n)
	if n < headerSize || n > rd.Remaining() {
		return nil, errors.New("elastic: snapshot too short")
	}
	if !IsElastic(rd.Peek(4)) {
		return nil, errors.New("elastic: bad magic")
	}
	data, err := rd.Next(headerSize)
	if err != nil {
		return nil, fmt.Errorf("elastic: header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != elasticVersion {
		return nil, fmt.Errorf("elastic: unsupported snapshot version %d", v)
	}
	p := 8
	var o Options
	o.Filter.MemoryBits = int(binary.LittleEndian.Uint64(data[p:]))
	o.Filter.ExpectedItems = int(binary.LittleEndian.Uint64(data[p+8:]))
	p += 16
	o.Filter.HashFunctions = int(data[p])
	o.Filter.MemoryAccesses = int(data[p+1])
	o.Filter.WordBits = int(data[p+2])
	p += 3
	o.Filter.Seed = binary.LittleEndian.Uint32(data[p:])
	p += 4
	o.Shards = int(binary.LittleEndian.Uint16(data[p:]))
	p += 2
	o.TargetFPR = math.Float64frombits(binary.LittleEndian.Uint64(data[p:]))
	p += 8
	o.GrowthFactor = int(binary.LittleEndian.Uint32(data[p:]))
	p += 4
	o.TighteningRatio = math.Float64frombits(binary.LittleEndian.Uint64(data[p:]))
	p += 8
	o.GrowAt = math.Float64frombits(binary.LittleEndian.Uint64(data[p:]))
	p += 8
	o.MaxGenerations = int(binary.LittleEndian.Uint16(data[p:]))
	p += 2
	grows := binary.LittleEndian.Uint32(data[p:])
	imports := binary.LittleEndian.Uint64(data[p+4:])
	nGens := binary.LittleEndian.Uint32(data[p+12:])
	if err := o.setDefaults(); err != nil {
		return nil, err
	}
	left := n - headerSize
	if nGens == 0 || nGens > 1<<16 || int64(nGens) > left/genHdrSize {
		return nil, fmt.Errorf("elastic: implausible generation count %d", nGens)
	}
	f := &Filter{opts: o, grows: grows, imports: imports, gens: make([]*generation, 0, nGens)}
	sharded := make([]*mpcbf.Sharded, 0, nGens)
	for i := uint32(0); i < nGens; i++ {
		if left < genHdrSize {
			return nil, errors.New("elastic: truncated generation header")
		}
		h, err := rd.Next(genHdrSize)
		if err != nil {
			return nil, errors.New("elastic: truncated generation header")
		}
		// MarshalBinary writes the flag as 0 or 1; any other byte would
		// decode and re-encode differently.
		if h[0] > 1 {
			return nil, fmt.Errorf("elastic: generation %d: bad imported flag %d", i, h[0])
		}
		g := &generation{
			imported: h[0] == 1,
			growIdx:  binary.LittleEndian.Uint32(h[1:]),
			capacity: int(binary.LittleEndian.Uint64(h[5:])),
			budget:   math.Float64frombits(binary.LittleEndian.Uint64(h[13:])),
		}
		blobLen := int64(binary.LittleEndian.Uint32(h[21:]))
		left -= genHdrSize
		if blobLen > left {
			return nil, errors.New("elastic: truncated generation blob")
		}
		s, err := mpcbf.ReadSharded(rd, blobLen)
		if err != nil {
			return nil, fmt.Errorf("elastic: generation %d: %w", i, err)
		}
		left -= blobLen
		f.gens = append(f.gens, g)
		sharded = append(sharded, s)
	}
	if left != 0 {
		return nil, fmt.Errorf("elastic: %d trailing bytes after chain", left)
	}
	if f.gens[len(f.gens)-1].imported {
		return nil, errors.New("elastic: head generation marked imported")
	}
	f.Chain = mpcbf.NewChain(errAbsent, sharded...)
	return f, nil
}
