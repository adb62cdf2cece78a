// Package snapio is the streaming side of the filter codecs: a reader
// over an input of known length that pulls bytes through one fixed
// buffer and keeps a running CRC32 of everything it pulled.
//
// Every decoder (core filter, Sharded, window, elastic, and the server's
// namespace container) takes a *Reader plus the byte length of the
// object it decodes. A nested decoder reuses its caller's Reader (see
// From), so decoding a snapshot file of any shape costs the decoded
// state plus one buffer, and the whole file is checksummed in the same
// pass. Length fields are checked against Remaining before anything is
// allocated, so a header cannot make a decoder allocate more than the
// stream holds.
package snapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash"
	"hash/crc32"
	"io"
)

// BufSize is the read buffer size; shorter inputs get a buffer of their
// own length (at least minBuf).
const BufSize = 64 << 10

// minBuf bounds the largest fixed-size header a decoder may request with
// Next (a namespace container entry header is at most 308 bytes).
const minBuf = 512

// ErrTruncated reports a stream that ended before the decoder was done,
// or a length field larger than what the stream still holds.
var ErrTruncated = errors.New("snapio: truncated input")

// Reader reads a stream of known length through a fixed buffer: a
// bufio.Reader over the first n bytes of the source, teed into the CRC.
type Reader struct {
	br  *bufio.Reader
	lr  *io.LimitedReader // lr.N: bytes still to pull from the source
	crc hash.Hash32
}

// NewReader reads exactly n bytes of src.
func NewReader(src io.Reader, n int64) *Reader {
	size := int64(BufSize)
	if n < size {
		size = max(n, minBuf)
	}
	lr := &io.LimitedReader{R: src, N: n}
	crc := crc32.NewIEEE()
	return &Reader{br: bufio.NewReaderSize(io.TeeReader(lr, crc), int(size)), lr: lr, crc: crc}
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
func (r *Reader) Remaining() int64 { return r.lr.N + int64(r.br.Buffered()) }

// Sum32 returns the CRC32 (IEEE) of every byte pulled so far; once
// Remaining is 0 that is the checksum of the whole stream.
func (r *Reader) Sum32() uint32 { return r.crc.Sum32() }

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

// Read implements io.Reader over the unconsumed stream, so io.CopyN and
// io.ReadFull can take the bytes a decoder passes through undecoded.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	if err == io.EOF && r.lr.N > 0 {
		err = ErrTruncated // the source ended before the declared length
	}
	return n, err
}

// Words fills dst with little-endian 64-bit words.
func (r *Reader) Words(dst []uint64) error {
	for len(dst) > 0 {
		b, err := r.br.Peek(min(8*len(dst), r.br.Size()&^7))
		if err != nil {
			return truncated(err)
		}
		n := len(b) / 8
		for i := range dst[:n] {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		r.br.Discard(8 * n)
		dst = dst[n:]
	}
	return nil
}

// truncated reports a stream that ended early as ErrTruncated.
func truncated(err error) error {
	if err == io.EOF {
		return ErrTruncated
	}
	return err
}
