// Package snapio is the streaming side of the filter codecs: a reader
// over an input of known length that pulls bytes through one fixed
// buffer and keeps a running CRC32 of everything it pulled, and its
// mirror, a writer that pushes an encoding through one fixed buffer and
// keeps a running CRC32 of everything it flushed.
//
// Every decoder (core filter, Sharded, window, elastic, and the server's
// namespace container) takes a *Reader plus the byte length of the
// object it decodes. A nested decoder reuses its caller's Reader (see
// From), so decoding a snapshot file of any shape costs the decoded
// state plus one buffer, and the whole file is checksummed in the same
// pass. Length fields are checked against Remaining before anything is
// allocated, so a header cannot make a decoder allocate more than the
// stream holds.
//
// Every encoder writes through a *Writer. A Writer over a destination
// streams the encoding out in BufSize pieces, so writing a state of any
// size to a file costs one buffer; an appending Writer (Append) grows
// its buffer to hold the whole encoding, which is how MarshalBinary
// builds the same bytes.
package snapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/bitvec"
)

// BufSize is the read and write buffer size; a Reader over a shorter
// input gets a buffer of its input's length (at least minBuf).
const BufSize = 64 << 10

// minBuf bounds the largest fixed-size header a decoder may request with
// Next (a namespace container entry header is at most 308 bytes).
const minBuf = 512

// ErrTruncated reports a stream that ended before the decoder was done,
// or a length field larger than what the stream still holds.
var ErrTruncated = errors.New("snapio: truncated input")

// Reader reads a stream of known length through a fixed buffer: a
// bufio.Reader over the first n bytes of the source, which are
// checksummed as the buffer pulls them.
type Reader struct {
	br  *bufio.Reader
	src source
}

// source reads at most n more bytes of r, folding each into crc.
type source struct {
	r   io.Reader
	n   int64
	crc uint32
}

func (s *source) Read(p []byte) (int, error) {
	if s.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > s.n {
		p = p[:s.n]
	}
	n, err := s.r.Read(p)
	s.n -= int64(n)
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p[:n])
	return n, err
}

// NewReader reads exactly n bytes of src.
func NewReader(src io.Reader, n int64) *Reader {
	size := int64(BufSize)
	if n < size {
		size = max(n, minBuf)
	}
	r := &Reader{src: source{r: src, n: n}}
	r.br = bufio.NewReaderSize(&r.src, int(size))
	return r
}

// Reset makes r read exactly n bytes of src, from a zero checksum,
// keeping its buffer: a pool of Readers from NewReader(nil, BufSize)
// serves file after file without allocating.
func (r *Reader) Reset(src io.Reader, n int64) {
	r.src = source{r: src, n: n}
	r.br.Reset(&r.src)
}

// From returns src itself when it already is a *Reader, so a nested
// decoder shares its caller's buffer and running checksum; otherwise it
// wraps src with NewReader(src, n).
func From(src io.Reader, n int64) *Reader {
	if r, ok := src.(*Reader); ok {
		return r
	}
	return NewReader(src, n)
}

// Remaining reports the stream bytes not yet consumed.
func (r *Reader) Remaining() int64 { return r.src.n + int64(r.br.Buffered()) }

// Sum32 returns the CRC32 (IEEE) of every byte pulled so far; once
// Remaining is 0 that is the checksum of the whole stream.
func (r *Reader) Sum32() uint32 { return r.src.crc }

// Peek returns the next k bytes without consuming them, or fewer when
// the stream holds fewer. The slice is valid until the next call.
func (r *Reader) Peek(k int) []byte {
	b, _ := r.br.Peek(k)
	return b
}

// Next consumes and returns the next k bytes (k at most 512). The slice
// is valid until the next call.
func (r *Reader) Next(k int) ([]byte, error) {
	b, err := r.br.Peek(k)
	if err != nil {
		return nil, truncated(err)
	}
	r.br.Discard(k)
	return b, nil
}

// Discard consumes the next k bytes without returning them; they are
// checksummed like every other byte pulled.
func (r *Reader) Discard(k int64) error {
	for k > 0 {
		d, err := r.br.Discard(int(min(k, int64(r.br.Size()))))
		k -= int64(d)
		if err != nil {
			return truncated(err)
		}
	}
	return nil
}

// Read implements io.Reader over the unconsumed stream, so io.CopyN and
// io.ReadFull can take the bytes a decoder passes through undecoded.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	if err == io.EOF && r.src.n > 0 {
		err = ErrTruncated // the source ended before the declared length
	}
	return n, err
}

// Words fills dst with little-endian 64-bit words. It works through dst
// a page at a time (bitvec.PageRun) and leaves a page's words unwritten
// when they and the stream's words for them are all zero, so a sparse
// filter decoded into fresh memory, or into arenas released with
// bitvec.Zero, makes resident only the pages that hold a non-zero word.
// dst ends up the same whatever it held.
func (r *Reader) Words(dst []uint64) error {
	for len(dst) > 0 {
		run := dst[:bitvec.PageRun(dst)]
		b, err := r.br.Peek(min(8*len(run), r.br.Size()&^7))
		if err != nil {
			return truncated(err)
		}
		n := len(b) / 8
		if n < len(run) || !zeroBytes(b) || !zeroWords(run) {
			for i := range run[:n] {
				run[i] = binary.LittleEndian.Uint64(b[8*i:])
			}
		}
		r.br.Discard(8 * n)
		dst = dst[n:]
	}
	return nil
}

// zeroBytes reports whether b, a whole number of words, is all zero. It
// stops at the first non-zero word, so a dense encoding pays one load.
func zeroBytes(b []byte) bool {
	for i := 0; i < len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != 0 {
			return false
		}
	}
	return true
}

// zeroWords reports whether every word of w is zero, stopping at the
// first that is not.
func zeroWords(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return false
		}
	}
	return true
}

// truncated reports a stream that ended early as ErrTruncated.
func truncated(err error) error {
	if err == io.EOF {
		return ErrTruncated
	}
	return err
}

// Writer is the encoding side of the codecs, the mirror of Reader. A
// streaming Writer (NewWriter) collects bytes in one BufSize buffer and
// flushes it to its destination each time it fills, keeping a running
// CRC32 of every byte flushed. An appending Writer (Append) has no
// destination: its buffer grows to hold the whole encoding. The first
// error from the destination sticks: later writes do nothing, and Flush
// reports it.
type Writer struct {
	buf []byte
	dst io.Writer // nil for an appending Writer
	crc uint32
	err error
}

// NewWriter returns a Writer that streams to dst through a BufSize
// buffer.
func NewWriter(dst io.Writer) *Writer {
	return &Writer{buf: make([]byte, 0, BufSize), dst: dst}
}

// Append returns a Writer that appends to b, growing it as needed;
// Bytes returns the result. With cap(b)-len(b) at least the encoding's
// length, b is never reallocated.
func Append(b []byte) Writer { return Writer{buf: b} }

// Reset discards unflushed bytes, the checksum and any error, and
// streams to dst, keeping the buffer.
func (w *Writer) Reset(dst io.Writer) {
	w.buf, w.dst, w.crc, w.err = w.buf[:0], dst, 0, nil
}

// Bytes returns an appending Writer's bytes.
func (w *Writer) Bytes() []byte { return w.buf }

// Sum32 returns the CRC32 (IEEE) of every byte flushed so far; after
// Flush that is the checksum of everything written.
func (w *Writer) Sum32() uint32 { return w.crc }

// Flush writes any buffered bytes to the destination and reports the
// first error the destination returned. It does nothing on an appending
// Writer.
func (w *Writer) Flush() error {
	if w.dst != nil && len(w.buf) > 0 && w.err == nil {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf)
		_, w.err = w.dst.Write(w.buf)
		w.buf = w.buf[:0]
	}
	return w.err
}

// room makes space for k more bytes (k at most BufSize): a streaming
// Writer flushes when its buffer has less left, an appending one grows.
// It reports false once the Writer has failed.
func (w *Writer) room(k int) bool {
	if cap(w.buf)-len(w.buf) < k {
		if w.dst == nil {
			w.buf = slices.Grow(w.buf, k)
		} else if w.Flush(); cap(w.buf) < k {
			w.buf = make([]byte, 0, BufSize) // a zero Writer given a destination by Reset
		}
	}
	return w.err == nil
}

// Write implements io.Writer. p is copied, never retained.
func (w *Writer) Write(p []byte) (int, error) {
	if w.dst == nil {
		w.buf = append(w.buf, p...)
		return len(p), nil
	}
	n := len(p)
	for len(p) > 0 && w.room(1) {
		c := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf = w.buf[:len(w.buf)+c]
		p = p[c:]
	}
	return n - len(p), w.err
}

// ReadFrom implements io.ReaderFrom, so io.Copy and io.CopyN into a
// Writer read straight into its buffer. An appending Writer grows only
// when a read into its full buffer returns neither bytes nor EOF, so one
// sized for the input (with the input an io.LimitedReader, as io.CopyN
// makes it) never grows.
func (w *Writer) ReadFrom(r io.Reader) (n int64, err error) {
	for w.err == nil {
		if w.dst != nil && !w.room(1) {
			break
		}
		m, err := r.Read(w.buf[len(w.buf):cap(w.buf)])
		w.buf = w.buf[:len(w.buf)+m]
		n += int64(m)
		switch {
		case err == io.EOF:
			return n, nil
		case err != nil:
			return n, err
		case m == 0 && w.dst == nil && len(w.buf) == cap(w.buf):
			w.buf = slices.Grow(w.buf, minBuf)
		}
	}
	return n, w.err
}

// Byte writes v.
func (w *Writer) Byte(v byte) {
	if w.room(1) {
		w.buf = append(w.buf, v)
	}
}

// Uint16 writes v little-endian.
func (w *Writer) Uint16(v uint16) {
	if w.room(2) {
		w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
	}
}

// Uint32 writes v little-endian.
func (w *Writer) Uint32(v uint32) {
	if w.room(4) {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	}
}

// Uint64 writes v little-endian.
func (w *Writer) Uint64(v uint64) {
	if w.room(8) {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
}

// Words writes src as little-endian 64-bit words, the mirror of
// Reader.Words. An appending Writer grows at most once for them.
func (w *Writer) Words(src []uint64) {
	if w.dst == nil {
		w.buf = slices.Grow(w.buf, 8*len(src))
	}
	for len(src) > 0 && w.room(8) {
		n := min(len(src), (cap(w.buf)-len(w.buf))/8)
		out := w.buf[len(w.buf) : len(w.buf)+8*n]
		for i, x := range src[:n] {
			binary.LittleEndian.PutUint64(out[8*i:], x)
		}
		w.buf = w.buf[:len(w.buf)+8*n]
		src = src[n:]
	}
}
