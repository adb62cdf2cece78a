package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	mpcbf "repro"
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
// container. Writing streams the payload through one pooled snapio
// buffer that checksums what it flushes, and loading streams the file
// through one pooled snapio buffer that decodes and checksums in the same
// pass, so neither holds the file's bytes: a write costs what its
// encoder holds, a load the decoded state.
const snapMagic = 0x50414E53 // "SNAP" little-endian

// The snapio buffers of writeSnapFile and readSnapFile: every eviction,
// recovery, verify and container read borrows one instead of allocating
// 64 KiB.
var (
	snapWriters = sync.Pool{New: func() any { return snapio.NewWriter(nil) }}
	snapReaders = sync.Pool{New: func() any { return snapio.NewReader(nil, snapio.BufSize) }}
)

// createSnapFile writes the payload encode writes to path in the CRC
// envelope, the header last once the payload's checksum is known, and
// returns the file still open: every byte written, none yet fsynced. On
// failure it removes the file it created.
func createSnapFile(path string, encode func(w *snapio.Writer) error) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := snapWriters.Get().(*snapio.Writer)
	defer snapWriters.Put(w)
	defer w.Reset(nil)
	var hdr [8]byte
	_, err = f.Write(hdr[:])
	if err == nil {
		w.Reset(f)
		if err = encode(w); err == nil {
			err = w.Flush()
		}
	}
	if err == nil {
		binary.LittleEndian.PutUint32(hdr[0:4], snapMagic)
		binary.LittleEndian.PutUint32(hdr[4:8], w.Sum32())
		_, err = f.WriteAt(hdr[:], 0)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// finishSnapFile makes a file createSnapFile wrote durable at path: it
// fsyncs and closes the file and, when path names another file, renames
// it over path and fsyncs the directory, so a crash leaves either the
// old file at path or the whole new one. On failure it removes the file.
func finishSnapFile(f *os.File, path string) error {
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && f.Name() != path {
		if err = os.Rename(f.Name(), path); err == nil {
			syncDir(filepath.Dir(path))
		}
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// writeSnapFile streams the payload encode writes into tmp in the CRC
// envelope and makes it durable at path (finishSnapFile): tmp is path
// itself, or its temp file when a crash must leave path's old contents.
// On failure nothing is left at tmp.
func writeSnapFile(tmp, path string, encode func(w *snapio.Writer) error) error {
	f, err := createSnapFile(tmp, encode)
	if err != nil {
		return err
	}
	return finishSnapFile(f, path)
}

// writeBytes is the encode callback of a payload already in memory.
func writeBytes(data []byte) func(w *snapio.Writer) error {
	return func(w *snapio.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// readSnapBytes returns the payload of an enveloped file, checksum
// verified: the bytes a replication bootstrap ships.
func readSnapBytes(path string) (data []byte, err error) {
	err = readSnapFile(path, func(r io.Reader, n int64) error {
		data = make([]byte, n)
		_, err := io.ReadFull(r, data)
		return err
	})
	return data, err
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
	rd := snapReaders.Get().(*snapio.Reader)
	defer snapReaders.Put(rd)
	defer rd.Reset(nil, 0)
	rd.Reset(f, n)
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
	base    ns.Filter
	entries []nsSnapEntry
}

// nsSnapEntry is one decoded container entry. A resident entry carries
// its decoded state; an evicted one was streamed to a staged evict file
// (see stageEvicted), published by commit.
type nsSnapEntry struct {
	name   string
	cfg    ns.Config
	state  ns.Filter
	items  uint64
	staged string
}

// evictedFunc consumes the n-byte state of an evicted container entry
// from rd, returning the staged file it wrote ("" when it wrote none).
type evictedFunc func(name string, rd *snapio.Reader, n int64) (string, error)

// stageEvicted streams an evicted entry's state into its staged evict
// file in the evict-file envelope: the snapshot it came from is not yet
// known good, so nothing loads it until commit publishes it.
func (s *Store) stageEvicted(name string, rd *snapio.Reader, n int64) (string, error) {
	path := stagedPath(nsSnapPath(s.opts.Dir, name))
	err := writeSnapFile(path, path, func(w *snapio.Writer) error {
		_, err := io.CopyN(w, rd, n)
		return err
	})
	if err != nil {
		return "", err
	}
	return path, nil
}

// commit publishes the staged evict files under their final names.
func (st *snapState) commit(dir string) error {
	for _, e := range st.entries {
		if e.staged == "" {
			continue
		}
		if err := os.Rename(e.staged, nsSnapPath(dir, e.name)); err != nil {
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

// decodeSnapPayload decodes an n-byte store payload from rd, building
// every resident state in a (see mpcbf.Arenas) and handing each evicted
// namespace's state to evicted. On error, anything evicted already
// staged is removed again.
func decodeSnapPayload(rd *snapio.Reader, n int64, a *mpcbf.Arenas, evicted evictedFunc) (snapState, error) {
	var st snapState
	var err error
	if isNsContainer(rd.Peek(8)) {
		err = readNsContainer(rd, n, &st, a, evicted)
	} else {
		st.base, err = ns.DecodeState(rd, n, a)
	}
	if err != nil {
		st.discard()
		return snapState{}, err
	}
	return st, nil
}

// checkSnapPayload reads an n-byte store payload from rd and fails
// exactly when decoding it, evicted namespaces' states included, would,
// building no arena and staging nothing, so a payload of any size costs
// a fixed amount of memory.
func checkSnapPayload(rd *snapio.Reader, n int64) error {
	check := &mpcbf.Arenas{Check: true}
	_, err := decodeSnapPayload(rd, n, check, func(_ string, rd *snapio.Reader, n int64) (string, error) {
		_, err := ns.DecodeState(rd, n, check)
		return "", err
	})
	return err
}

var errBadNsContainer = errors.New("server: corrupt namespace snapshot container")

// readNsContainer streams a namespace container (layout in ns_store.go)
// into st, building resident states in a. Every length is checked
// against the bytes the container has left before anything is decoded
// or allocated.
func readNsContainer(rd *snapio.Reader, n int64, st *snapState, a *mpcbf.Arenas, evicted evictedFunc) error {
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
	if st.base, err = ns.DecodeState(rd, int64(baseLen), a); err != nil {
		return err
	}
	left -= int64(baseLen)
	b, err := rd.Next(4)
	if err != nil {
		return errBadNsContainer
	}
	left -= 4
	count := le.Uint32(b)
	// Every entry costs at least its fixed header, so the count is bounded
	// by the bytes left before the entry table is allocated.
	if int64(count) > left/(1+nsEntryFixed) {
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
		fixed := nameLen + nsEntryFixed
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
			e.state, err = ns.DecodeState(rd, int64(dataLen), a)
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
		st, err = decodeSnapPayload(snapio.From(r, n), n, nil, s.stageEvicted)
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
// namespace, resident or evicted — without building any of it.
func verifySnapshot(path string) error {
	return readSnapFile(path, func(r io.Reader, n int64) error {
		return checkSnapPayload(snapio.From(r, n), n)
	})
}
