package mpcbf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/snapio"
)

// Arenas is what every state reader (ReadSharded, and the window and
// elastic readers above it) builds in. A nil *Arenas makes the decode
// allocate. One holding released arena words (Put) makes it build each
// shard's arena in words of exactly the length that shard needs, where
// it holds such a slice. Put zeroes what it is handed and gives its
// whole pages back to the kernel, and a decode writes only the pages
// that hold a non-zero word, so a sparse filter stays small in memory
// however it was built. One with Check set makes the same reader only
// check its input: it fails exactly when a decode would, builds no
// arena, and returns a state that must not be used.
type Arenas = core.Arenas

// ReleaseArenas hands every shard's arena words to put, for a later
// decode to take (Arenas.Put). s must not be used again: the caller
// answers for it that no reader still holds s.
func (s *Sharded) ReleaseArenas(put func(words []uint64)) {
	for i := range s.shards {
		s.shards[i].f.f.ReleaseArena(put)
	}
}

// MarshalBinary implements encoding.BinaryMarshaler: the complete filter
// state (geometry, counters, saturated words) in a deterministic
// little-endian format. This is how Section V's reduce-side join ships a
// loaded filter to every map task (the DistributedCache pattern).
func (m *MPCBF) MarshalBinary() ([]byte, error) {
	return m.f.MarshalBinary()
}

// UnmarshalMPCBF reconstructs a filter serialized with MarshalBinary. The
// result is fully functional and independent of the original.
func UnmarshalMPCBF(data []byte) (*MPCBF, error) {
	f, err := core.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return &MPCBF{f: f}, nil
}

// Sharded wire format: a self-describing header (magic, format
// version, shard-selection seed, shard count, element count) followed by
// each shard's [u32 size][core filter encoding].
const (
	shardedMagic   = 0x4D504353 // "SCPM" little-endian ("MPCS" read big-endian)
	shardedVersion = 2
	shardedHdrLen  = 24
)

// MarshaledSize returns the length of the filter's encoding.
func (s *Sharded) MarshaledSize() int {
	n := shardedHdrLen
	for i := range s.shards {
		n += 4 + s.shards[i].f.f.MarshaledSize()
	}
	return n
}

// MarshalBinary serializes a sharded filter: a self-describing header
// (magic, version, shard-selection seed, shard count, element count)
// followed by each shard's encoding. Not safe to call concurrently with
// updates.
func (s *Sharded) MarshalBinary() ([]byte, error) {
	w := snapio.Append(make([]byte, 0, s.MarshaledSize()))
	s.Encode(&w)
	return w.Bytes(), nil
}

// Encode writes the MarshalBinary encoding, MarshaledSize bytes, to w.
// Like MarshalBinary it must not run concurrently with updates.
func (s *Sharded) Encode(w *snapio.Writer) {
	w.Uint32(shardedMagic)
	w.Uint32(shardedVersion)
	w.Uint32(s.seed)
	w.Uint32(uint32(len(s.shards)))
	w.Uint64(uint64(s.count.Load()))
	for i := range s.shards {
		f := s.shards[i].f.f
		w.Uint32(uint32(f.MarshaledSize()))
		f.Encode(w)
	}
}

// UnmarshalSharded reconstructs a sharded filter serialized with
// (*Sharded).MarshalBinary. The format stores the shard-selection seed
// in its header, so no further arguments are needed.
func UnmarshalSharded(data []byte) (*Sharded, error) {
	return ReadSharded(bytes.NewReader(data), int64(len(data)), nil)
}

// ReadSharded is UnmarshalSharded over a stream, building in a (see
// Arenas): it decodes exactly n bytes of r, holding one 64 KiB buffer
// besides the decoded filter.
func ReadSharded(r io.Reader, n int64, a *Arenas) (*Sharded, error) {
	rd := snapio.From(r, n)
	if n > rd.Remaining() {
		return nil, errors.New("mpcbf: truncated sharded filter")
	}
	le := binary.LittleEndian
	if p := rd.Peek(4); len(p) < 4 || le.Uint32(p) != shardedMagic {
		return nil, errors.New("mpcbf: not a sharded filter")
	}
	if n < shardedHdrLen {
		return nil, errors.New("mpcbf: truncated sharded filter")
	}
	hdr, err := rd.Next(shardedHdrLen)
	if err != nil {
		return nil, fmt.Errorf("mpcbf: sharded header: %w", err)
	}
	if v := le.Uint32(hdr[4:8]); v != shardedVersion {
		return nil, fmt.Errorf("mpcbf: unsupported sharded format version %d", v)
	}
	seed := le.Uint32(hdr[8:12])
	nShards, count := int64(le.Uint32(hdr[12:16])), int64(le.Uint64(hdr[16:24]))
	left := n - shardedHdrLen
	// Every shard costs at least its 4-byte size plus a filter header, so
	// the count is bounded by the bytes left before the table is allocated.
	if nShards < 1 || nShards > 1<<20 || count < 0 || nShards > left/(4+core.HeaderLen) {
		return nil, errors.New("mpcbf: implausible sharded header")
	}
	s := &Sharded{
		shards: make([]shard, nShards),
		pick:   pickHasher(seed),
		seed:   seed,
	}
	for i := range s.shards {
		if left < 4 {
			return nil, fmt.Errorf("mpcbf: truncated at shard %d", i)
		}
		b, err := rd.Next(4)
		if err != nil {
			return nil, fmt.Errorf("mpcbf: truncated at shard %d", i)
		}
		size := int64(le.Uint32(b))
		left -= 4
		if size > left {
			return nil, fmt.Errorf("mpcbf: bad shard %d size %d", i, size)
		}
		f, err := core.Decode(rd, size, a)
		if err != nil {
			return nil, fmt.Errorf("mpcbf: shard %d: %w", i, err)
		}
		s.shards[i].f = &MPCBF{f: f}
		left -= size
	}
	if left != 0 {
		return nil, errors.New("mpcbf: trailing bytes after shards")
	}
	s.count.Store(count)
	return s, nil
}
