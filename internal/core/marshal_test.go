package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/snapio"
)

func TestMarshalRoundTrip(t *testing.T) {
	f := mustNew(t, Config{MemoryBits: 1 << 18, K: 3, G: 2, B1: 40, Seed: 9})
	in := keys("m", 500)
	for _, k := range in {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Count() != f.Count() || g.L() != f.L() || g.B1() != f.B1() ||
		g.K() != f.K() || g.G() != f.G() || g.Nmax() != f.Nmax() {
		t.Fatalf("geometry mismatch after round trip")
	}
	for _, k := range in {
		if !g.Contains(k) {
			t.Fatalf("false negative after round trip: %q", k)
		}
		if g.CountOf(k) != f.CountOf(k) {
			t.Fatalf("CountOf mismatch for %q", k)
		}
	}
	// The clone must be fully functional: delete everything.
	for _, k := range in {
		if err := g.Delete(k); err != nil {
			t.Fatalf("delete on unmarshaled filter: %v", err)
		}
	}
	if g.Count() != 0 {
		t.Fatalf("Count = %d", g.Count())
	}
	// And the original is untouched.
	if !f.Contains(in[0]) {
		t.Fatal("original filter mutated by clone operations")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	f := mustNew(t, Config{MemoryBits: 1 << 12, ExpectedN: 50, Seed: 1})
	f.Insert([]byte("x"))
	a, _ := f.MarshalBinary()
	b, _ := f.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("marshaling not deterministic")
	}
}

func TestMarshalSaturatedState(t *testing.T) {
	f := mustNew(t, Config{MemoryBits: 64, W: 64, K: 3, B1: 62, Seed: 3, Overflow: OverflowSaturate})
	if err := f.Insert([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if f.SaturatedWords() != 1 {
		t.Fatal("setup: word not saturated")
	}
	data, _ := f.MarshalBinary()
	g, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.SaturatedWords() != 1 {
		t.Fatalf("saturated set lost: %d", g.SaturatedWords())
	}
	if !g.Contains([]byte("anything")) {
		t.Fatal("saturated word semantics lost")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	f := mustNew(t, Config{MemoryBits: 1 << 12, ExpectedN: 50, Seed: 1})
	good, _ := f.MarshalBinary()

	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:20],
		"bad magic":   append([]byte{1, 2, 3, 4}, good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{9, 0, 0, 0}, good[8:]...)...),
		"truncated":   good[:len(good)-8],
		"extended":    append(append([]byte{}, good...), 0),
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// wrappedLengthBlob is a 104-byte header-only encoding whose
// saturated-word count is chosen so (nSat+nArena)*8 wraps to zero: a
// length check that multiplies before bounding accepts it and then reads
// far past the end of the input.
func wrappedLengthBlob() []byte {
	b := make([]byte, 0, HeaderLen)
	b = binary.LittleEndian.AppendUint32(b, marshalMagic)
	b = binary.LittleEndian.AppendUint32(b, marshalVersion)
	const nArena = 1
	for _, v := range []uint64{64, 64, 3, 1, 40, 0, 0, 0, 0, 0, 1<<61 - nArena, nArena} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

func TestUnmarshalRejectsWrappedLength(t *testing.T) {
	if _, err := Unmarshal(wrappedLengthBlob()); err == nil {
		t.Fatal("header-only blob with a wrapping saturated-word count accepted")
	}
}

// TestDecodeRejectsLengthBeyondStream: a declared length larger than
// what the stream holds fails before the arena is allocated, and a
// stream cut inside the arena fails cleanly.
func TestDecodeRejectsLengthBeyondStream(t *testing.T) {
	f := mustNew(t, Config{MemoryBits: 1 << 14, ExpectedN: 100, Seed: 3})
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rd := snapio.NewReader(bytes.NewReader(data), int64(len(data)))
	if _, err := Decode(rd, int64(len(data))+8, nil); err == nil {
		t.Fatal("length beyond the stream accepted")
	}
	cut := data[:len(data)-9]
	if _, err := Decode(bytes.NewReader(cut), int64(len(data)), nil); err == nil {
		t.Fatal("stream cut inside the arena accepted")
	}
	if _, err := Unmarshal(cut); err == nil {
		t.Fatal("truncated encoding accepted")
	}
}
