package snapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
	"testing/iotest"
)

// TestReaderMixedReads walks a stream longer than the buffer with every
// read kind, through a source that returns one byte per Read, and checks
// values, the remaining count, and the running checksum.
func TestReaderMixedReads(t *testing.T) {
	const words = 3*BufSize/8 + 5
	data := make([]byte, 0, 3+8*words+1000)
	data = append(data, 0xAA, 0xBB, 0xCC)
	for i := 0; i < words; i++ {
		data = binary.LittleEndian.AppendUint64(data, uint64(i)*0x9e3779b97f4a7c15)
	}
	for i := 0; i < 1000; i++ {
		data = append(data, byte(i))
	}
	for name, src := range map[string]io.Reader{
		"whole":    bytes.NewReader(data),
		"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
	} {
		t.Run(name, func(t *testing.T) {
			r := NewReader(src, int64(len(data)))
			if From(r, 0) != r {
				t.Fatal("From did not reuse the Reader")
			}
			if p := r.Peek(2); !bytes.Equal(p, []byte{0xAA, 0xBB}) {
				t.Fatalf("Peek = %x", p)
			}
			if b, err := r.Next(3); err != nil || !bytes.Equal(b, []byte{0xAA, 0xBB, 0xCC}) {
				t.Fatalf("Next = %x, %v", b, err)
			}
			got := make([]uint64, words)
			if err := r.Words(got); err != nil {
				t.Fatal(err)
			}
			for i, w := range got {
				if w != uint64(i)*0x9e3779b97f4a7c15 {
					t.Fatalf("word %d = %x", i, w)
				}
			}
			if r.Remaining() != 1000 {
				t.Fatalf("Remaining = %d", r.Remaining())
			}
			var tail bytes.Buffer
			if _, err := io.CopyN(&tail, r, 1000); err != nil || !bytes.Equal(tail.Bytes(), data[len(data)-1000:]) {
				t.Fatalf("CopyN: %v", err)
			}
			if r.Remaining() != 0 || r.Sum32() != crc32.ChecksumIEEE(data) {
				t.Fatalf("end: remaining %d, crc %x want %x", r.Remaining(), r.Sum32(), crc32.ChecksumIEEE(data))
			}
			if _, err := r.Next(1); !errors.Is(err, ErrTruncated) {
				t.Fatalf("Next past the end: %v", err)
			}
		})
	}
}

// TestReaderShortSource: a source holding fewer bytes than declared
// fails with ErrTruncated instead of returning zeros.
func TestReaderShortSource(t *testing.T) {
	r := NewReader(bytes.NewReader(make([]byte, 20)), 24)
	if err := r.Words(make([]uint64, 3)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Words over a short source: %v", err)
	}
	r = NewReader(bytes.NewReader(make([]byte, 20)), 24)
	if _, err := io.CopyN(io.Discard, r, 24); !errors.Is(err, ErrTruncated) {
		t.Fatalf("copy of the declared length from a short source: %v", err)
	}
}
