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
func (f *Filter) MarshalBinary() (buf []byte, _ error) {
	f.View(func(gens []*mpcbf.Sharded) {
		w := snapio.Append(make([]byte, 0, marshaledSize(gens)))
		f.encode(&w, gens)
		buf = w.Bytes()
	})
	return buf, nil
}

// MarshaledSize returns the length of the chain's encoding.
func (f *Filter) MarshaledSize() (n int) {
	f.View(func(gens []*mpcbf.Sharded) { n = marshaledSize(gens) })
	return n
}

func marshaledSize(gens []*mpcbf.Sharded) int {
	n := headerSize
	for _, s := range gens {
		n += genHdrSize + s.MarshaledSize()
	}
	return n
}

// Encode writes the MarshalBinary encoding, MarshaledSize bytes, to w.
func (f *Filter) Encode(w *snapio.Writer) {
	f.View(func(gens []*mpcbf.Sharded) { f.encode(w, gens) })
}

func (f *Filter) encode(w *snapio.Writer, gens []*mpcbf.Sharded) {
	o := f.opts
	w.Uint32(elasticMagic)
	w.Uint32(elasticVersion)
	w.Uint64(uint64(o.Filter.MemoryBits))
	w.Uint64(uint64(o.Filter.ExpectedItems))
	w.Byte(byte(o.Filter.HashFunctions))
	w.Byte(byte(o.Filter.MemoryAccesses))
	w.Byte(byte(o.Filter.WordBits))
	w.Uint32(o.Filter.Seed)
	w.Uint16(uint16(o.Shards))
	w.Uint64(math.Float64bits(o.TargetFPR))
	w.Uint32(uint32(o.GrowthFactor))
	w.Uint64(math.Float64bits(o.TighteningRatio))
	w.Uint64(math.Float64bits(o.GrowAt))
	w.Uint16(uint16(o.MaxGenerations))
	w.Uint32(f.grows)
	w.Uint64(f.imports)
	w.Uint32(uint32(len(gens)))
	for i, s := range gens {
		g := f.gens[i]
		var imp byte
		if g.imported {
			imp = 1
		}
		w.Byte(imp)
		w.Uint32(g.growIdx)
		w.Uint64(uint64(g.capacity))
		w.Uint64(math.Float64bits(g.budget))
		w.Uint32(uint32(s.MarshaledSize()))
		s.Encode(w)
	}
}

// UnmarshalFilter reconstructs a chain from a MarshalBinary snapshot.
func UnmarshalFilter(data []byte) (*Filter, error) {
	return ReadFilter(bytes.NewReader(data), int64(len(data)))
}

// ReadFilter is UnmarshalFilter over a stream: it decodes exactly n bytes
// of r, holding one 64 KiB buffer besides the decoded chain.
func ReadFilter(r io.Reader, n int64) (*Filter, error) { return readFilter(r, n, false) }

// CheckFilter reads a chain encoding of exactly n bytes from r and fails
// exactly when ReadFilter would, building nothing: each generation is
// checked by mpcbf.CheckSharded.
func CheckFilter(r io.Reader, n int64) error {
	_, err := readFilter(r, n, true)
	return err
}

// readFilter is ReadFilter, or with check set CheckFilter, which applies
// the same checks and returns no chain.
func readFilter(r io.Reader, n int64, check bool) (*Filter, error) {
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
	var (
		f       *Filter
		sharded []*mpcbf.Sharded
	)
	if !check {
		f = &Filter{opts: o, grows: grows, imports: imports, gens: make([]*generation, 0, nGens)}
		sharded = make([]*mpcbf.Sharded, 0, nGens)
	}
	imported := false // the newest generation read so far came in whole
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
		imported = h[0] == 1
		growIdx := binary.LittleEndian.Uint32(h[1:])
		capacity := int(binary.LittleEndian.Uint64(h[5:]))
		budget := math.Float64frombits(binary.LittleEndian.Uint64(h[13:]))
		blobLen := int64(binary.LittleEndian.Uint32(h[21:]))
		left -= genHdrSize
		if blobLen > left {
			return nil, errors.New("elastic: truncated generation blob")
		}
		var s *mpcbf.Sharded
		if check {
			err = mpcbf.CheckSharded(rd, blobLen)
		} else {
			s, err = mpcbf.ReadSharded(rd, blobLen)
		}
		if err != nil {
			return nil, fmt.Errorf("elastic: generation %d: %w", i, err)
		}
		left -= blobLen
		if !check {
			f.gens = append(f.gens, &generation{imported: imported, growIdx: growIdx, capacity: capacity, budget: budget})
			sharded = append(sharded, s)
		}
	}
	if left != 0 {
		return nil, fmt.Errorf("elastic: %d trailing bytes after chain", left)
	}
	if imported {
		return nil, errors.New("elastic: head generation marked imported")
	}
	if check {
		return nil, nil
	}
	f.Chain = mpcbf.NewChain(errAbsent, sharded...)
	return f, nil
}
