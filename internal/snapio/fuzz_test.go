package snapio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"testing"
)

// fuzzMaxWords caps the words one FuzzWordsMatchesCopy input expands to.
const fuzzMaxWords = 1 << 15

// runs expands spec into at most max words: each byte b stands for
// (b&0x7f)*37+1 words, all zero when b's top bit is set and drawn from
// rng otherwise, so a few bytes describe runs many pages long.
func runs(spec []byte, rng *rand.Rand, max int) []uint64 {
	var w []uint64
	for _, b := range spec {
		for n := min(int(b&0x7f)*37+1, max-len(w)); n > 0; n-- {
			x := uint64(0)
			if b&0x80 == 0 {
				x = rng.Uint64()
			}
			w = append(w, x)
		}
	}
	return w
}

// FuzzWordsMatchesCopy holds Words to an element-wise decode. The stream
// holds skip bytes, which move where the buffer's refills fall, then the
// words srcRuns describes (see runs); they are decoded into a destination
// holding the words dstRuns describes, which starts off words into a
// page-sized lead. Every destination word must equal what
// binary.LittleEndian reads from the stream, whatever it held and
// whether or not its page is skipped; the words around the destination
// must keep their values; and the whole stream must be consumed and
// checksummed.
func FuzzWordsMatchesCopy(f *testing.F) {
	f.Add([]byte{0x85, 3, 0xff, 0xff, 1, 0x90}, []byte{0x80 | 40, 9, 0x80 | 2, 0x7f}, uint64(1), uint16(0), uint8(0))
	f.Add([]byte{1, 0xff, 0xff, 0xff, 1}, []byte{0xff, 0xff, 0xff, 0xff}, uint64(2), uint16(511), uint8(3))
	f.Add([]byte{0xff, 0x7f, 0xff, 0xff}, []byte{5, 0xff, 0x7f, 0x7f}, uint64(3), uint16(300), uint8(8))
	f.Add([]byte{0x81}, []byte{2}, uint64(4), uint16(7), uint8(200)) // a buffer shorter than a page
	pageWords := os.Getpagesize() / 8
	f.Fuzz(func(t *testing.T, srcRuns, dstRuns []byte, seed uint64, off uint16, skip uint8) {
		rng := rand.New(rand.NewPCG(seed, ^seed))
		want := runs(srcRuns, rng, fuzzMaxWords)
		if len(want) == 0 {
			return
		}
		data := make([]byte, skip, int(skip)+8*len(want))
		for _, x := range want {
			data = binary.LittleEndian.AppendUint64(data, x)
		}
		const guard = 0x5a5a5a5a5a5a5a5a
		lead := int(off) % pageWords
		buf := make([]uint64, lead+len(want)+3)
		for i := range buf {
			buf[i] = guard
		}
		dst := buf[lead : lead+len(want)]
		clear(dst)
		copy(dst, runs(dstRuns, rng, len(dst)))

		r := NewReader(bytes.NewReader(data), int64(len(data)))
		if err := r.Discard(int64(skip)); err != nil {
			t.Fatal(err)
		}
		if err := r.Words(dst); err != nil {
			t.Fatal(err)
		}
		for i, x := range dst {
			if x != want[i] {
				t.Fatalf("word %d of %d = %#x, want %#x", i, len(dst), x, want[i])
			}
		}
		for i, x := range buf {
			if (i < lead || i >= lead+len(want)) && x != guard {
				t.Fatalf("word %d outside the destination changed to %#x", i, x)
			}
		}
		if r.Remaining() != 0 || r.Sum32() != crc32.ChecksumIEEE(data) {
			t.Fatalf("end: remaining %d, crc %x want %x", r.Remaining(), r.Sum32(), crc32.ChecksumIEEE(data))
		}
	})
}
