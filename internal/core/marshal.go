package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/hcbf"
	"repro/internal/snapio"
)

// Serialization lets a loaded filter be broadcast to other processes —
// the DistributedCache pattern of the paper's Section V — or persisted
// across restarts. The format is a fixed little-endian header followed by
// the saturated-word list and the raw arena words:
//
//	[u32 magic][u32 version] 12 × u64: memBits w k g b1 nmax seed
//	overflow count overflows nSat nArena, then nSat × u64, nArena × u64

const (
	marshalMagic   = 0x4D504342 // "MPCB"
	marshalVersion = 1
	// HeaderLen is the fixed header's length, the shortest encoding.
	HeaderLen = 8 + 12*8
)

// MarshaledSize returns the length of the filter's encoding.
func (f *Filter) MarshaledSize() int {
	return HeaderLen + 8*len(f.saturated) + 8*len(f.arena.Words())
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (f *Filter) MarshalBinary() ([]byte, error) {
	return f.AppendBinary(make([]byte, 0, f.MarshaledSize()))
}

// AppendBinary appends the filter's encoding to b, growing it at most
// once.
func (f *Filter) AppendBinary(b []byte) ([]byte, error) {
	w := snapio.Append(slices.Grow(b, f.MarshaledSize()))
	f.Encode(&w)
	return w.Bytes(), nil
}

// Encode writes the filter's encoding, MarshaledSize bytes, to w: the
// one encoder behind MarshalBinary, AppendBinary and streamed evict
// files.
func (f *Filter) Encode(w *snapio.Writer) {
	sat := make([]int, 0, len(f.saturated))
	for i := range f.saturated {
		sat = append(sat, i)
	}
	sort.Ints(sat)
	arena := f.arena.Words()

	w.Uint32(marshalMagic)
	w.Uint32(marshalVersion)
	for _, v := range [12]uint64{
		uint64(f.cfg.MemoryBits), uint64(f.cfg.W), uint64(f.cfg.K), uint64(f.cfg.G),
		uint64(f.b1), uint64(f.nmax), uint64(f.cfg.Seed), uint64(f.cfg.Overflow),
		uint64(f.count), uint64(f.overflows), uint64(len(sat)), uint64(len(arena)),
	} {
		w.Uint64(v)
	}
	for _, i := range sat {
		w.Uint64(uint64(i))
	}
	w.Words(arena)
}

// Unmarshal reconstructs a filter serialized with MarshalBinary.
func Unmarshal(data []byte) (*Filter, error) {
	return Decode(bytes.NewReader(data), int64(len(data)))
}

// Decode reads one filter encoding of exactly n bytes from r. When r is
// a *snapio.Reader the decode shares its buffer and running checksum.
func Decode(r io.Reader, n int64) (*Filter, error) { return read(r, n, false) }

// Check reads one filter encoding of exactly n bytes from r and fails
// exactly when Decode would, without building the filter: the arena
// streams through a fixed buffer instead of into a new one, so checking
// an encoding of any size allocates a fixed amount.
func Check(r io.Reader, n int64) error {
	_, err := read(r, n, true)
	return err
}

// maxWordBits bounds the word width a decoded header may name.
const maxWordBits = 1 << 16

// read is Decode, or with check set Check, which applies the same
// checks and returns no filter.
func read(r io.Reader, n int64, check bool) (*Filter, error) {
	rd := snapio.From(r, n)
	if n < HeaderLen || n > rd.Remaining() {
		return nil, errors.New("mpcbf: truncated filter data")
	}
	h, err := rd.Next(HeaderLen)
	if err != nil {
		return nil, fmt.Errorf("mpcbf: filter header: %w", err)
	}
	le := binary.LittleEndian
	if le.Uint32(h[0:4]) != marshalMagic {
		return nil, errors.New("mpcbf: bad magic")
	}
	if v := le.Uint32(h[4:8]); v != marshalVersion {
		return nil, fmt.Errorf("mpcbf: unsupported version %d", v)
	}
	field := func(i int) uint64 { return le.Uint64(h[8+8*i:]) }
	memBits := int(field(0))
	w := int(field(1))
	k := int(field(2))
	g := int(field(3))
	b1 := int(field(4))
	nmax := int(field(5))
	seedRaw := field(6)
	overflow := OverflowPolicy(field(7))
	count := int(field(8))
	overflows := int(field(9))
	nSat, nArena := field(10), field(11)

	if overflow != OverflowFail && overflow != OverflowSaturate {
		return nil, fmt.Errorf("mpcbf: bad overflow policy %d", overflow)
	}
	// Sanity-bound every header field before any allocation: the input is
	// untrusted, and the arena size implied by the geometry must match the
	// payload length exactly.
	if w < 1 || w > maxWordBits || k < 1 || k > 1024 || g < 1 || g > k ||
		b1 < 1 || b1 > w || nmax < 0 || nmax > w ||
		count < 0 || overflows < 0 || seedRaw > 1<<32-1 {
		return nil, errors.New("mpcbf: implausible filter header")
	}
	seed := uint32(seedRaw)
	if memBits < w || memBits/w > (1<<40)/maxWordBits {
		return nil, errors.New("mpcbf: implausible filter size")
	}
	// Both counts are bounded by the words left in this encoding before
	// they are summed or scaled, so neither can wrap.
	words := uint64(n-HeaderLen) / 8
	if nSat > words || nArena > words-nSat || HeaderLen+8*int64(nSat+nArena) != n {
		return nil, errors.New("mpcbf: corrupt filter length")
	}
	if wantArena := (memBits / w * w); uint64(wantArena+63)/64 != nArena {
		return nil, fmt.Errorf("mpcbf: arena size %d does not match geometry", nArena)
	}

	f, err := layout(Config{
		MemoryBits: memBits, W: w, K: k, G: g, B1: b1,
		Seed: seed, Overflow: overflow,
	})
	if err != nil {
		return nil, fmt.Errorf("mpcbf: rebuilding geometry: %w", err)
	}
	if !check {
		f.arena = bitvec.New(f.l * w)
		f.saturated = make(map[int]bool)
	}
	// The header's explicit B1 left nmax zero; carry the original
	// heuristic value for Geometry reporting.
	f.nmax = nmax
	f.count = count
	f.overflows = overflows
	prev := -1
	for i := uint64(0); i < nSat; i++ {
		b, err := rd.Next(8)
		if err != nil {
			return nil, fmt.Errorf("mpcbf: saturated words: %w", err)
		}
		wIdx := int(le.Uint64(b))
		// The canonical encoding lists saturated words strictly ascending;
		// anything else would not round-trip.
		if wIdx < 0 || wIdx >= f.l || wIdx <= prev {
			return nil, fmt.Errorf("mpcbf: saturated word %d out of range or order", wIdx)
		}
		prev = wIdx
		if !check {
			f.saturated[wIdx] = true
		}
	}
	if check {
		return nil, f.checkArena(rd, int(nArena))
	}
	if err := rd.Words(f.arena.Words()); err != nil {
		return nil, fmt.Errorf("mpcbf: arena: %w", err)
	}
	// Register-kernel words cannot be walked out of bounds; generic ones
	// are walked bit by bit, so their hierarchies must end in the word.
	if f.kmode == kmodeGeneric {
		for i := 0; i < f.l; i++ {
			if !f.word(i).Fits() {
				return nil, errOverrun(i)
			}
		}
	}
	return &f, nil
}

// errOverrun reports a decoded word whose hierarchy does not end inside
// it.
func errOverrun(word int) error {
	return fmt.Errorf("mpcbf: word %d hierarchy overruns the word", word)
}

// checkBufWords is checkArena's buffer: room for the widest word a
// header may name, wherever its first bit falls, and then some.
const checkBufWords = 2 * maxWordBits / 64

// checkArena consumes an arena of nArena words from rd the way read
// decodes one, through a fixed buffer: a generic-width word must hold
// its hierarchy, and register-kernel words need no check.
func (f *Filter) checkArena(rd *snapio.Reader, nArena int) error {
	if f.kmode != kmodeGeneric {
		if err := rd.Discard(8 * int64(nArena)); err != nil {
			return fmt.Errorf("mpcbf: arena: %w", err)
		}
		return nil
	}
	w := f.cfg.W
	arena := bitvec.New(64 * min(nArena, checkBufWords))
	buf := arena.Words()
	// buf[:have] holds arena words base onward; read words came in so far.
	base, have, read := 0, 0, 0
	for i := 0; i < f.l; {
		// Keep the words from the one holding word i's first bit on.
		if first := i * w / 64; first > base {
			have = copy(buf, buf[first-base:have])
			base = first
		}
		m := min(len(buf)-have, nArena-read)
		if err := rd.Words(buf[have : have+m]); err != nil {
			return fmt.Errorf("mpcbf: arena: %w", err)
		}
		have, read = have+m, read+m
		for ; i < f.l && (i+1)*w <= (base+have)*64; i++ {
			h, err := hcbf.NewWordGeneric(arena, i*w-base*64, w, f.b1)
			if err != nil || !h.Fits() {
				return errOverrun(i)
			}
		}
	}
	return nil
}
