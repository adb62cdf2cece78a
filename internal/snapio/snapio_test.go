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

// failAfter accepts limit bytes, then fails every write.
type failAfter struct {
	limit int
	got   bytes.Buffer
}

var errDisk = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.got.Len()+len(p) > f.limit {
		return 0, errDisk
	}
	return f.got.Write(p)
}

// encodeMixed writes every kind of field, with runs of words and raw
// bytes longer than the buffer, and a copy through ReadFrom.
func encodeMixed(w *Writer, words []uint64, raw []byte) {
	w.Byte(0xAA)
	w.Uint16(0xBBCC)
	w.Uint32(0xDDEEFF00)
	w.Uint64(0x1122334455667788)
	w.Words(words)
	w.Write(raw)
	io.CopyN(w, bytes.NewReader(raw), int64(len(raw)/2))
	w.Words(words[:3])
}

// TestWriterStreamsWhatAppendBuilds: a streaming Writer puts out exactly
// the bytes an appending Writer builds, whatever the destination's write
// sizes, and its running checksum is theirs.
func TestWriterStreamsWhatAppendBuilds(t *testing.T) {
	words := make([]uint64, 3*BufSize/8+5)
	for i := range words {
		words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	raw := make([]byte, BufSize+777)
	for i := range raw {
		raw[i] = byte(i * 7)
	}
	a := Append(make([]byte, 0, 16))
	encodeMixed(&a, words, raw)
	want := a.Bytes()
	if len(want) != 1+2+4+8+8*len(words)+len(raw)+len(raw)/2+24 {
		t.Fatalf("appended %d bytes", len(want))
	}

	var out bytes.Buffer
	w := NewWriter(&out)
	encodeMixed(w, words, raw)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) || w.Sum32() != crc32.ChecksumIEEE(want) {
		t.Fatalf("streamed %d bytes (crc %x), appended %d (crc %x)",
			out.Len(), w.Sum32(), len(want), crc32.ChecksumIEEE(want))
	}

	// A reused Writer starts over: fresh checksum, new destination.
	out.Reset()
	w.Reset(&out)
	w.Uint32(7)
	if err := w.Flush(); err != nil || !bytes.Equal(out.Bytes(), []byte{7, 0, 0, 0}) ||
		w.Sum32() != crc32.ChecksumIEEE(out.Bytes()) {
		t.Fatalf("after Reset: %x, crc %x, %v", out.Bytes(), w.Sum32(), err)
	}

	// The destination's first error sticks and surfaces at Flush.
	fail := &failAfter{limit: BufSize}
	w.Reset(fail)
	encodeMixed(w, words, raw)
	if err := w.Flush(); !errors.Is(err, errDisk) || fail.got.Len() == 0 || fail.got.Len() > BufSize {
		t.Fatalf("failing destination: %v after %d bytes", err, fail.got.Len())
	}
}

// TestAppendSizedNeverGrows: an appending Writer given room for the
// whole encoding keeps its buffer, including through io.CopyN, which
// reads until its limit is reached.
func TestAppendSizedNeverGrows(t *testing.T) {
	src := make([]byte, 3*BufSize)
	buf := make([]byte, 0, 8+len(src))
	w := Append(buf)
	w.Uint64(uint64(len(src)))
	if n, err := io.CopyN(&w, bytes.NewReader(src), int64(len(src))); err != nil || n != int64(len(src)) {
		t.Fatalf("CopyN: %d, %v", n, err)
	}
	if got := w.Bytes(); len(got) != cap(buf) || &got[0] != &buf[:1][0] {
		t.Fatalf("sized buffer grew: len %d cap %d", len(got), cap(got))
	}
}

// TestReaderReset: a pooled Reader reads file after file through its one
// buffer, each with its own checksum, without allocating.
func TestReaderReset(t *testing.T) {
	a := bytes.Repeat([]byte{1, 2, 3}, BufSize)
	b := []byte("short second stream")
	r := NewReader(nil, BufSize)
	for _, data := range [][]byte{a, b, a} {
		r.Reset(bytes.NewReader(data), int64(len(data)))
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, data) || r.Sum32() != crc32.ChecksumIEEE(data) || r.Remaining() != 0 {
			t.Fatalf("after Reset: %d bytes, crc %x, %v", len(got), r.Sum32(), err)
		}
	}
	src := bytes.NewReader(a)
	words := make([]uint64, 64)
	if n := testing.AllocsPerRun(20, func() {
		src.Reset(a)
		r.Reset(src, int64(len(a)))
		if err := r.Words(words); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Reset and read: %.1f allocs, want 0", n)
	}
}
