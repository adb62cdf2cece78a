package window

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	mpcbf "repro"
	"repro/internal/core"
	"repro/internal/snapio"
)

// Windowed wire format: a self-describing header followed by each
// generation's sharded-filter encoding, in ring-slot order:
//
//	[u32 magic][u32 version][u32 G][u32 head][u64 rotations][u64 spanNanos]
//	G × [u32 len][Sharded.MarshalBinary bytes]
//
// The magic is distinct from the sharded filter's, so a snapshot loader
// can dispatch on the leading bytes (see IsWindowed).
const (
	windowMagic   = 0x4D504357 // "WCPM" little-endian ("MPCW" read big-endian)
	windowVersion = 1
	windowHdrLen  = 32
)

// IsWindowed reports whether data begins with the windowed format's
// magic — the dispatch test a state loader uses to pick ReadFilter over
// mpcbf.ReadSharded.
func IsWindowed(data []byte) bool {
	return len(data) >= 4 && binary.LittleEndian.Uint32(data[0:4]) == windowMagic
}

// MarshalBinary serializes the complete window state: ring shape,
// rotation count, span, and every generation's filter in slot order,
// into one buffer sized up front. Not safe to call concurrently with
// updates beyond the chain's read lock (the caller serializes against
// rotation, as the store's mutation lock does).
func (f *Filter) MarshalBinary() (out []byte, _ error) {
	f.View(func(gens []*mpcbf.Sharded) {
		w := snapio.Append(make([]byte, 0, marshaledSize(gens)))
		f.encode(&w, gens)
		out = w.Bytes()
	})
	return out, nil
}

// MarshaledSize returns the length of the window's encoding.
func (f *Filter) MarshaledSize() (n int) {
	f.View(func(gens []*mpcbf.Sharded) { n = marshaledSize(gens) })
	return n
}

func marshaledSize(gens []*mpcbf.Sharded) int {
	n := windowHdrLen
	for _, g := range gens {
		n += 4 + g.MarshaledSize()
	}
	return n
}

// Encode writes the MarshalBinary encoding, MarshaledSize bytes, to w,
// under the same rules.
func (f *Filter) Encode(w *snapio.Writer) {
	f.View(func(gens []*mpcbf.Sharded) { f.encode(w, gens) })
}

func (f *Filter) encode(w *snapio.Writer, gens []*mpcbf.Sharded) {
	ring := f.ring(gens)
	w.Uint32(windowMagic)
	w.Uint32(windowVersion)
	w.Uint32(uint32(len(ring)))
	w.Uint32(uint32(f.head))
	w.Uint64(f.rotations)
	w.Uint64(uint64(f.opts.Span))
	for _, g := range ring {
		w.Uint32(uint32(g.MarshaledSize()))
		g.Encode(w)
	}
}

// UnmarshalFilter reconstructs a window serialized with MarshalBinary.
// The result is fully functional and independent of the original; the
// ring position, rotation count, and per-generation contents are exact.
func UnmarshalFilter(data []byte) (*Filter, error) {
	return ReadFilter(bytes.NewReader(data), int64(len(data)), nil)
}

// ReadFilter is UnmarshalFilter over a stream, building the
// generations in a (see mpcbf.Arenas): it decodes exactly n bytes of r,
// holding one 64 KiB buffer besides the decoded window.
func ReadFilter(r io.Reader, n int64, a *mpcbf.Arenas) (*Filter, error) {
	rd := snapio.From(r, n)
	if n < windowHdrLen || n > rd.Remaining() {
		return nil, errors.New("window: truncated windowed filter")
	}
	if !IsWindowed(rd.Peek(4)) {
		return nil, errors.New("window: bad magic (not a windowed filter)")
	}
	hdr, err := rd.Next(windowHdrLen)
	if err != nil {
		return nil, fmt.Errorf("window: header: %w", err)
	}
	le := binary.LittleEndian
	if v := le.Uint32(hdr[4:8]); v != windowVersion {
		return nil, fmt.Errorf("window: unsupported format version %d", v)
	}
	g := int(le.Uint32(hdr[8:12]))
	head := int(le.Uint32(hdr[12:16]))
	rotations := le.Uint64(hdr[16:24])
	span := time.Duration(le.Uint64(hdr[24:32]))
	// Every generation costs at least its 4-byte size plus a filter
	// header, so the ring is bounded by the bytes left before allocating.
	left := n - windowHdrLen
	if g < 1 || g > 1<<10 || head < 0 || head >= g || span <= 0 || int64(g) > left/(4+core.HeaderLen) {
		return nil, errors.New("window: implausible windowed header")
	}
	ring := make([]*mpcbf.Sharded, g)
	for i := range ring {
		if left < 4 {
			return nil, fmt.Errorf("window: truncated at generation %d", i)
		}
		b, err := rd.Next(4)
		if err != nil {
			return nil, fmt.Errorf("window: truncated at generation %d", i)
		}
		size := int64(le.Uint32(b))
		left -= 4
		if size > left {
			return nil, fmt.Errorf("window: bad generation %d size %d", i, size)
		}
		if ring[i], err = mpcbf.ReadSharded(rd, size, a); err != nil {
			return nil, fmt.Errorf("window: generation %d: %w", i, err)
		}
		left -= size
	}
	if left != 0 {
		return nil, errors.New("window: trailing bytes after generations")
	}
	return newFilter(Options{Span: span, Generations: g, Shards: ring[0].Shards()}, ring, head, rotations), nil
}
