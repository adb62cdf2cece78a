package mpcbf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/snapio"
)

// Arenas holds the arena words of filters that are gone, for a decode to
// build its filter in (ReadShardedReusing, and the window and elastic
// readers above it) instead of allocating. A decode takes a slice only at
// exactly the word count a shard needs and overwrites every word of it.
// The zero value holds nothing; a nil *Arenas makes every decode
// allocate.
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

// Sharded wire format. Version 2 (current) self-describes: a magic tag,
// the format version, and the shard-selection seed precede the shard
// table, so unmarshalling needs no out-of-band seed. The legacy version-1
// layout ([nShards u32][count u64][shards...]) had no magic; it is
// distinguishable because its leading field, the shard count, is
// validated to at most 1<<20 — far below any magic value — and it is
// still accepted by UnmarshalSharded when the caller supplies the seed.
const (
	shardedMagic   = 0x4D504353 // "SCPM" little-endian ("MPCS" read big-endian)
	shardedVersion = 2
	shardedHdrLen  = 24
	legacyHdrLen   = 12
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
	return s.AppendBinary(make([]byte, 0, s.MarshaledSize()))
}

// AppendBinary appends the MarshalBinary encoding to b; with
// cap(b)-len(b) >= MarshaledSize it never reallocates.
func (s *Sharded) AppendBinary(b []byte) ([]byte, error) {
	w := snapio.Append(slices.Grow(b, s.MarshaledSize()))
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
// (*Sharded).MarshalBinary. The current (version 2) format stores the
// shard-selection seed in its header, so no further arguments are needed.
// Blobs written by the legacy seed-less format are still accepted, but
// require the original construction seed as the optional second argument;
// the argument is ignored for current-format input.
func UnmarshalSharded(data []byte, legacySeed ...uint32) (*Sharded, error) {
	return ReadSharded(bytes.NewReader(data), int64(len(data)), legacySeed...)
}

// ReadSharded is UnmarshalSharded over a stream: it decodes exactly n
// bytes of r, holding one 64 KiB buffer besides the decoded filter.
func ReadSharded(r io.Reader, n int64, legacySeed ...uint32) (*Sharded, error) {
	return readSharded(r, n, false, nil, legacySeed...)
}

// ReadShardedReusing is ReadSharded for the current format, building
// each shard's arena in words taken from a where a holds a slice of the
// length that shard needs (see Arenas).
func ReadShardedReusing(r io.Reader, n int64, a *Arenas) (*Sharded, error) {
	return readSharded(r, n, false, a)
}

// CheckSharded reads a current-format sharded filter of exactly n bytes
// from r and fails exactly when ReadSharded would, building nothing:
// each shard is checked by core.Check, so a filter of any size costs a
// fixed amount of memory.
func CheckSharded(r io.Reader, n int64) error {
	_, err := readSharded(r, n, true, nil)
	return err
}

// readSharded is ReadSharded reusing a's arenas, or with check set
// CheckSharded, which applies the same checks and returns no filter.
func readSharded(r io.Reader, n int64, check bool, a *Arenas, legacySeed ...uint32) (*Sharded, error) {
	rd := snapio.From(r, n)
	if n > rd.Remaining() {
		return nil, errors.New("mpcbf: truncated sharded filter")
	}
	le := binary.LittleEndian
	var (
		hdr            []byte
		seed           uint32
		nShards, count int64
		err            error
	)
	if p := rd.Peek(4); len(p) == 4 && le.Uint32(p) == shardedMagic {
		if n < shardedHdrLen {
			return nil, errors.New("mpcbf: truncated sharded filter")
		}
		if hdr, err = rd.Next(shardedHdrLen); err != nil {
			return nil, fmt.Errorf("mpcbf: sharded header: %w", err)
		}
		if v := le.Uint32(hdr[4:8]); v != shardedVersion {
			return nil, fmt.Errorf("mpcbf: unsupported sharded format version %d", v)
		}
		seed = le.Uint32(hdr[8:12])
		nShards, count = int64(le.Uint32(hdr[12:16])), int64(le.Uint64(hdr[16:24]))
	} else {
		// Legacy layout: [nShards u32][count u64][shards...]. The seed was
		// never stored, so the caller must supply it.
		if len(legacySeed) == 0 {
			return nil, errors.New("mpcbf: legacy sharded format requires the construction seed")
		}
		if n < legacyHdrLen {
			return nil, errors.New("mpcbf: truncated sharded filter")
		}
		if hdr, err = rd.Next(legacyHdrLen); err != nil {
			return nil, fmt.Errorf("mpcbf: sharded header: %w", err)
		}
		seed = legacySeed[0]
		nShards, count = int64(le.Uint32(hdr[0:4])), int64(le.Uint64(hdr[4:12]))
	}
	left := n - int64(len(hdr))
	// Every shard costs at least its 4-byte size plus a filter header, so
	// the count is bounded by the bytes left before the table is allocated.
	if nShards < 1 || nShards > 1<<20 || count < 0 || nShards > left/(4+core.HeaderLen) {
		return nil, errors.New("mpcbf: implausible sharded header")
	}
	var s *Sharded
	if !check {
		s = &Sharded{
			shards: make([]shard, nShards),
			pick:   pickHasher(seed),
			seed:   seed,
		}
	}
	for i := 0; i < int(nShards); i++ {
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
		if check {
			err = core.Check(rd, size)
		} else {
			var f *core.Filter
			f, err = core.DecodeReusing(rd, size, a)
			s.shards[i].f = &MPCBF{f: f}
		}
		if err != nil {
			return nil, fmt.Errorf("mpcbf: shard %d: %w", i, err)
		}
		left -= size
	}
	if left != 0 {
		return nil, errors.New("mpcbf: trailing bytes after shards")
	}
	if check {
		return nil, nil
	}
	s.count.Store(count)
	return s, nil
}
