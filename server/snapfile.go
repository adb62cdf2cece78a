package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"repro/internal/snapio"
	"repro/server/ns"
	"repro/server/wire"
)

// Snapshot files (and namespace evict files) carry a CRC envelope so a
// silently flipped byte in the (self-consistent but checksum-free) filter
// encoding is caught at load time and recovery falls back instead of
// serving corrupt counters:
//
//	[u32 magic][u32 crc32(IEEE) of data][data]
//
// data is a store payload: a bare filter state (Sharded, windowed, or
// elastic encoding, told apart by its leading magic) or a namespace
// container. Loading streams the file through one snapio buffer that
// decodes and checksums in the same pass, so a load holds the decoded
// state plus 64 KiB, never the file's bytes.
const snapMagic = 0x50414E53 // "SNAP" little-endian

// writeSnapshotFile writes data in the CRC envelope and fsyncs it. The
// 8-byte header and the payload go out as two writes, so the payload is
// never copied into a second buffer.
func writeSnapshotFile(path string, data []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], snapMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(data))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSnapFile streams the payload of an enveloped file into decode,
// which must consume exactly n bytes of r. The checksum covers every
// byte decode pulled, so it is checked after decode returns: the caller
// must not publish what decode built unless readSnapFile returns nil.
func readSnapFile(path string, decode func(r io.Reader, n int64) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	var hdr [8]byte
	if fi.Size() < int64(len(hdr)) {
		return errors.New("server: truncated snapshot")
	}
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != snapMagic {
		return errors.New("server: bad snapshot magic")
	}
	n := fi.Size() - int64(len(hdr))
	rd := snapio.NewReader(f, n)
	if err := decode(rd, n); err != nil {
		return err
	}
	if rd.Remaining() != 0 {
		return errors.New("server: trailing bytes in snapshot")
	}
	if rd.Sum32() != binary.LittleEndian.Uint32(hdr[4:8]) {
		return errors.New("server: snapshot checksum mismatch")
	}
	return nil
}

// snapState is one decoded store payload: the default state and, for a
// namespace container, its entries.
type snapState struct {
	base    ns.State
	entries []nsSnapEntry
}

// nsSnapEntry is one decoded container entry. A resident entry carries
// its decoded state; an evicted one was streamed to a staged evict file
// (see stageEvicted), published by commit.
type nsSnapEntry struct {
	name   string
	cfg    ns.Config
	state  ns.State
	items  uint64
	staged string
}

// evictedFunc consumes the n-byte state of an evicted container entry
// from rd, returning the staged file it wrote ("" when it wrote none).
type evictedFunc func(name string, rd *snapio.Reader, n int64) (string, error)

// stagedSuffix marks an evict file streamed out of a snapshot that is not
// yet known good; listNsSnapFiles ignores it.
const stagedSuffix = ".load"

// stageEvicted streams an evicted entry's state into
// ns-<name>.snap.load in the evict-file envelope.
func (s *Store) stageEvicted(name string, rd *snapio.Reader, n int64) (string, error) {
	path := nsSnapPath(s.opts.Dir, name) + stagedSuffix
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return "", err
	}
	var hdr [8]byte
	crc := crc32.NewIEEE()
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = io.CopyN(io.MultiWriter(f, crc), rd, n)
	}
	if err == nil {
		binary.LittleEndian.PutUint32(hdr[0:4], snapMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], crc.Sum32())
		_, err = f.WriteAt(hdr[:], 0)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", err
	}
	return path, nil
}

// verifyEvicted decodes and drops an evicted entry's state: verification
// checks that every namespace in a snapshot loads, evicted or not.
func verifyEvicted(_ string, rd *snapio.Reader, n int64) (string, error) {
	_, err := ns.DecodeState(rd, n)
	return "", err
}

// commit publishes the staged evict files under their final names.
func (st *snapState) commit(dir string) error {
	for _, e := range st.entries {
		if e.staged == "" {
			continue
		}
		if err := os.Rename(e.staged, strings.TrimSuffix(e.staged, stagedSuffix)); err != nil {
			return err
		}
	}
	syncDir(dir)
	return nil
}

// installNamespaces publishes a loaded snapshot's namespaces: staged
// evict files go live first, then every entry joins the registry.
func (s *Store) installNamespaces(st *snapState) error {
	if err := st.commit(s.opts.Dir); err != nil {
		st.discard()
		return fmt.Errorf("server: restore namespace evict files: %w", err)
	}
	for _, en := range st.entries {
		if err := s.reg.InstallSnapshot(en.name, en.cfg, en.state, en.items); err != nil {
			return fmt.Errorf("server: restore namespace: %w", err)
		}
	}
	return nil
}

// discard removes staged evict files of a payload that will not be used.
func (st *snapState) discard() {
	for _, e := range st.entries {
		if e.staged != "" {
			os.Remove(e.staged)
		}
	}
}

// decodeSnapPayload decodes an n-byte store payload from rd. On error,
// anything evicted already staged is removed again.
func decodeSnapPayload(rd *snapio.Reader, n int64, evicted evictedFunc) (snapState, error) {
	if !isNsContainer(rd.Peek(8)) {
		st, err := ns.DecodeState(rd, n)
		return snapState{base: st}, err
	}
	var st snapState
	err := decodeNsContainer(rd, n, evicted, &st)
	if err != nil {
		st.discard()
		return snapState{}, err
	}
	return st, nil
}

var errBadNsContainer = errors.New("server: corrupt namespace snapshot container")

// decodeNsContainer streams a namespace container (layout in
// ns_store.go) into st. Every length is checked against the bytes the
// container has left before anything is decoded or allocated.
func decodeNsContainer(rd *snapio.Reader, n int64, evicted evictedFunc, st *snapState) error {
	le := binary.LittleEndian
	if n < 16 {
		return errBadNsContainer
	}
	hdr, err := rd.Next(16)
	if err != nil {
		return errBadNsContainer
	}
	if v := le.Uint32(hdr[4:8]); v != nsContainerVersion {
		return fmt.Errorf("server: namespace container version %d not supported", v)
	}
	left := n - 16
	baseLen := le.Uint64(hdr[8:16])
	if left < 4 || baseLen > uint64(left-4) {
		return errBadNsContainer
	}
	if st.base, err = ns.DecodeState(rd, int64(baseLen)); err != nil {
		return err
	}
	left -= int64(baseLen)
	b, err := rd.Next(4)
	if err != nil {
		return errBadNsContainer
	}
	left -= 4
	count := le.Uint32(b)
	if int64(count) > left { // each entry is > 1 byte
		return errBadNsContainer
	}
	st.entries = make([]nsSnapEntry, 0, count)
	for i := uint32(0); i < count; i++ {
		if left < 1 {
			return errBadNsContainer
		}
		b, err := rd.Next(1)
		if err != nil {
			return errBadNsContainer
		}
		nameLen := int(b[0])
		fixed := nameLen + wire.NsConfigSize + 1 + 8 + 8
		if int64(1+fixed) > left {
			return errBadNsContainer
		}
		if b, err = rd.Next(fixed); err != nil {
			return errBadNsContainer
		}
		left -= int64(1 + fixed)
		e := nsSnapEntry{name: string(b[:nameLen])}
		// The name becomes a file name for an evicted entry: validate it
		// before anything is written.
		if err := wire.ValidateNamespace(e.name); err != nil {
			return errBadNsContainer
		}
		cfgw, r, err := wire.DecodeNsConfig(b[nameLen:])
		if err != nil {
			return errBadNsContainer
		}
		e.cfg = ns.ConfigFromWire(cfgw)
		resident := r[0] != 0
		e.items = le.Uint64(r[1:9])
		dataLen := le.Uint64(r[9:17])
		if dataLen > uint64(left) {
			return errBadNsContainer
		}
		if resident {
			e.state, err = ns.DecodeState(rd, int64(dataLen))
		} else {
			e.staged, err = evicted(e.name, rd, int64(dataLen))
		}
		if err != nil {
			return fmt.Errorf("ns %q: %w", e.name, err)
		}
		left -= int64(dataLen)
		st.entries = append(st.entries, e)
	}
	if left != 0 {
		return errBadNsContainer
	}
	return nil
}

// loadSnapshot streams, checksums, and decodes one snapshot file. Evicted
// namespaces are staged beside their evict files; the caller commits or
// discards them.
func (s *Store) loadSnapshot(path string) (snapState, error) {
	var st snapState
	err := readSnapFile(path, func(r io.Reader, n int64) (err error) {
		st, err = decodeSnapPayload(snapio.From(r, n), n, s.stageEvicted)
		return err
	})
	if err != nil {
		st.discard()
		return snapState{}, err
	}
	return st, nil
}

// verifySnapshot confirms a just-written snapshot file loads cleanly —
// the default state and, for a namespace container, every embedded
// namespace; evicted ones are decoded one at a time and dropped.
func verifySnapshot(path string) error {
	return readSnapFile(path, func(r io.Reader, n int64) error {
		_, err := decodeSnapPayload(snapio.From(r, n), n, verifyEvicted)
		return err
	})
}
