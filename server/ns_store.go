package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/snapio"
	"repro/server/ns"
	"repro/server/wire"
)

// Multi-tenant namespaces: the store's ns.Registry holds the named
// filters beside the pinned default entry (namespace ""), all sharing
// the one WAL and the one replication stream. Three WAL-only record
// types make the namespace map and the per-record targeting durable:
//
//	NS_CREATE: body = [0xE2][u8 len][name][NsConfigSize-byte resolved config]
//	NS_DROP:   body = [0xE3][u8 len][name]
//	NS_SELECT: body = [0xE4][u8 len][name]   (len 0 = the default filter)
//
// NS_CREATE carries the *resolved* configuration, so replay and replicas
// rebuild identical geometry regardless of their local defaults.
// NS_SELECT is a prefix record: every data record that follows applies
// to the selected namespace until the next SELECT. The selection resets
// to the default state at each segment boundary — the primary emits it
// only as needed after a rotation — so a snapshot plus its tail segments
// is always self-describing. All three are flush barriers in the batch
// applier, mirroring the ROTATE discipline: records logged before a
// lifecycle event must land in the pre-event state.
//
// Evictions are deliberately NOT logged: residency is local policy (each
// node has its own quota), while the WAL describes the logical state
// both primaries and byte-mirror replicas must agree on.
const (
	walOpNsCreate = 0xE2
	walOpNsDrop   = 0xE3
	walOpNsSelect = 0xE4
)

// nsSnapPath is a namespace's evict file: the marshaled filter state of
// an evicted namespace, wrapped in the same CRC envelope as snapshots.
func nsSnapPath(dir, name string) string {
	return filepath.Join(dir, "ns-"+name+".snap")
}

// listNsSnapFiles returns the evict files present in dir.
func listNsSnapFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "ns-") && strings.HasSuffix(n, ".snap") {
			out = append(out, filepath.Join(dir, n))
		}
	}
	return out
}

// nsRegistryOptions binds the registry's persistence callbacks to the
// store's data directory, publishing evict files the way snapshots are
// published.
func (s *Store) nsRegistryOptions() ns.Options {
	dir := s.opts.Dir
	return ns.Options{
		Defaults:  s.opts.NsDefaults,
		Quota:     s.opts.NsQuota,
		IdleAfter: s.opts.NsIdleAfter,
		Log:       s.opts.Log,
		Save: func(name string, encode func(w *snapio.Writer) error) error {
			return publishSnapFile(nsSnapPath(dir, name), encode)
		},
		Load: func(name string, decode func(r io.Reader, n int64) error) error {
			return readSnapFile(nsSnapPath(dir, name), decode)
		},
		Remove: func(name string) error {
			if err := os.Remove(nsSnapPath(dir, name)); err != nil && !os.IsNotExist(err) {
				return err
			}
			return nil
		},
	}
}

// Namespaces exposes the registry for observability snapshots.
func (s *Store) Namespaces() *ns.Registry { return s.reg }

// nsCreateBody frames an NS_CREATE record body: the namespace's WAL name
// block followed by its resolved wire configuration.
func nsCreateBody(e *ns.Entry) []byte {
	wn := e.WALName()
	body := make([]byte, 0, len(wn)+wire.NsConfigSize)
	body = append(body, wn...)
	return wire.AppendNsConfig(body, e.Config().Wire())
}

// decodeNsName splits [u8 len][name] off the front of a namespace WAL
// record body.
func decodeNsName(b []byte) (name, rest []byte, err error) {
	if len(b) < 1 {
		return nil, nil, errors.New("server: truncated namespace wal record")
	}
	n := int(b[0])
	if len(b) < 1+n {
		return nil, nil, errors.New("server: truncated namespace wal record")
	}
	return b[1 : 1+n], b[1+n:], nil
}

// selectLocked ensures the WAL's selection context is e, emitting an
// NS_SELECT record when it is not. Caller holds s.mu; the enqueued
// select shares the commit round of whatever data record follows it.
func (s *Store) selectLocked(e *ns.Entry) error {
	if s.walCtx == e {
		return nil
	}
	if _, err := s.wal.Enqueue(walOpNsSelect, e.WALName(), nil); err != nil {
		return err
	}
	s.walCtx = e
	return nil
}

// nsCreateLocked creates a resident namespace with an already-resolved
// configuration and logs its NS_CREATE record. Quota enforcement runs
// after the create so the new namespace is never its own victim.
func (s *Store) nsCreateLocked(name string, cfg ns.Config, tr *reqTrace) (*ns.Entry, uint64, error) {
	e, err := s.reg.Create(name, cfg)
	if err != nil {
		return nil, 0, err
	}
	ticket, err := s.wal.Enqueue(walOpNsCreate, nsCreateBody(e), tr)
	if err != nil {
		return nil, 0, err
	}
	if err := s.reg.EnsureQuota(e); err != nil {
		return nil, 0, err
	}
	return e, ticket, nil
}

// --- namespace admin ops --------------------------------------------------

// nsCreateEnq creates a namespace from wire-level overrides resolved
// against the daemon defaults. Re-creating an existing namespace is
// idempotent iff the resolved configurations match.
func (s *Store) nsCreateEnq(name []byte, cfgw wire.NsConfig, tr *reqTrace) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg, err := s.reg.Resolve(ns.ConfigFromWire(cfgw))
	if err != nil {
		return 0, err
	}
	if e := s.reg.Lookup(name); e != nil {
		if e.Config() != cfg {
			return 0, fmt.Errorf("server: namespace %q exists with a different configuration", name)
		}
		return 0, nil
	}
	_, ticket, err := s.nsCreateLocked(string(name), cfg, tr)
	return ticket, err
}

// nsDropEnq removes a namespace, its evict file, and logs NS_DROP. A
// drop implicitly resets the WAL selection context (both here and at
// apply time), so no dangling SELECT can target the dropped name.
// Dropping an unknown name succeeds without logging anything — the
// no-op mirror of applyNsDrop, so a cluster-wide drop that partially
// failed can be retried until every node agrees.
func (s *Store) nsDropEnq(name []byte, tr *reqTrace) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.reg.Drop(name)
	if e == nil {
		return 0, nil
	}
	if s.walCtx == e {
		s.walCtx = s.reg.Default()
	}
	return s.wal.Enqueue(walOpNsDrop, e.WALName(), tr)
}

// NsList returns all namespace names, sorted.
func (s *Store) NsList() []string { return s.reg.Names() }

// NsStats summarizes one namespace; "" is the default filter, always
// resident and reporting its live footprint.
func (s *Store) NsStats(name []byte) (wire.NsStats, error) {
	e := s.reg.Lookup(name)
	if e == nil {
		return wire.NsStats{}, errUnknownNS(name)
	}
	return e.Stats(), nil
}

// --- WAL apply (recovery + replication) -----------------------------------

// applyNsCreate replays an NS_CREATE record. An existing namespace with
// the identical resolved configuration is tolerated — a replica that
// rejected a frame after applying part of it sees the same record again
// on resend — but a configuration mismatch is a hard error: the durable
// history disagrees with memory.
func (s *Store) applyNsCreate(body []byte) error {
	name, rest, err := decodeNsName(body)
	if err != nil {
		return err
	}
	cfgw, rest, err := wire.DecodeNsConfig(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("server: trailing bytes in NS_CREATE record")
	}
	cfg := ns.ConfigFromWire(cfgw)
	if e := s.reg.Lookup(name); e != nil {
		if e.Config() != cfg {
			return fmt.Errorf("server: NS_CREATE replay: namespace %q exists with a different configuration", name)
		}
		return nil
	}
	e, err := s.reg.Create(string(name), cfg)
	if err != nil {
		return err
	}
	return s.reg.EnsureQuota(e)
}

// applyNsDrop replays an NS_DROP record. Dropping an unknown namespace
// is a no-op (resend idempotency).
func (s *Store) applyNsDrop(body []byte) error {
	name, rest, err := decodeNsName(body)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("server: trailing bytes in NS_DROP record")
	}
	e := s.reg.Drop(name)
	if e != nil && s.walCtx == e {
		s.walCtx = s.reg.Default()
	}
	return nil
}

// applyNsSelect replays an NS_SELECT record: subsequent data records
// target the named namespace (recovered if evicted), or the default
// filter for the empty name. A select of an unknown namespace means the
// WAL stream is inconsistent — fail loudly rather than misdirect
// counters.
func (s *Store) applyNsSelect(body []byte) error {
	name, rest, err := decodeNsName(body)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("server: trailing bytes in NS_SELECT record")
	}
	e := s.reg.Lookup(name)
	if e == nil {
		return fmt.Errorf("server: NS_SELECT of unknown namespace %q", name)
	}
	if err := s.residentLocked(e); err != nil {
		return err
	}
	s.touch(e)
	s.walCtx = e
	return nil
}

// --- snapshot container ---------------------------------------------------
//
// When any namespace exists, snapshots (and DUMP/bootstrap payloads)
// switch from the bare filter encoding to a container that carries the
// default filter's state plus every named namespace — resolved config,
// residency, items, and marshaled state:
//
//	[u32 magic][u32 version=2]
//	[u64 len][default state]
//	[u32 count] then per namespace, sorted by name:
//	  [u8 len][name][NsConfigSize-byte config][u8 resident][u64 items][u64 len][state]
//
// Version 2 widened the per-namespace config by the flags byte
// (NsConfigSize 34 -> 35); version-1 containers are refused with an
// explicit version error rather than misparsed.
//
// The container is self-contained: an evicted namespace's state is
// embedded by reading its evict file at snapshot time (safe — evicted
// state cannot mutate). On load, non-resident entries have their local
// evict file REWRITTEN from the embedded bytes: WAL-tail replay assumes
// every namespace starts in its snapshot state, and a local file
// written after this snapshot may already include tail mutations —
// replaying the tail on top would double-apply on a counting filter.
const (
	nsContainerMagic   = 0x4D50534E // "NSPM" little-endian
	nsContainerVersion = 2
)

// isNsContainer reports whether snapshot payload data is a namespace
// container.
func isNsContainer(data []byte) bool {
	return len(data) >= 8 && binary.LittleEndian.Uint32(data[:4]) == nsContainerMagic
}

// nsContainerSizeLocked returns the length of the container encoding:
// resident states at their encoded size, evicted ones at their evict
// file's payload. Caller holds s.mu.
func (s *Store) nsContainerSizeLocked() int {
	size := 16 + s.reg.Default().MarshaledSize() + 4
	for _, e := range s.reg.Entries() {
		size += len(e.WALName()) + wire.NsConfigSize + 1 + 8 + 8 + e.MarshaledSize()
		if !e.Resident() {
			if fi, err := os.Stat(nsSnapPath(s.opts.Dir, e.Name())); err == nil {
				size += int(fi.Size()) - 8
			}
		}
	}
	return size
}

// encodeNsContainerLocked writes the default state and every namespace
// as a container to w: resident states through their encoders, evicted
// ones copied from their evict files. Caller holds s.mu.
func (s *Store) encodeNsContainerLocked(w *snapio.Writer) error {
	def, entries := s.reg.Default(), s.reg.Entries()
	w.Uint32(nsContainerMagic)
	w.Uint32(nsContainerVersion)
	w.Uint64(uint64(def.MarshaledSize()))
	if err := def.Encode(w); err != nil {
		return err
	}
	w.Uint32(uint32(len(entries)))
	var cfg [wire.NsConfigSize]byte
	for _, e := range entries {
		w.Write(e.WALName())
		w.Write(wire.AppendNsConfig(cfg[:0], e.Config().Wire()))
		resident := byte(0)
		if e.Resident() {
			resident = 1
		}
		w.Byte(resident)
		w.Uint64(uint64(e.Len()))
		var err error
		if e.Resident() {
			w.Uint64(uint64(e.MarshaledSize()))
			err = e.Encode(w)
		} else {
			// Evicted state cannot mutate: copy it straight from the evict
			// file, checksum-verified on the way.
			err = readSnapFile(nsSnapPath(s.opts.Dir, e.Name()), func(r io.Reader, n int64) error {
				w.Uint64(uint64(n))
				_, err := io.CopyN(w, r, n)
				return err
			})
		}
		if err != nil {
			return fmt.Errorf("server: snapshot ns %q: %w", e.Name(), err)
		}
	}
	return nil
}

// nsIdleLoop evicts namespaces untouched past the idle horizon. Runs on
// primaries and replicas alike — residency is local policy.
func (s *Store) nsIdleLoop() {
	defer s.bg.Done()
	period := s.opts.NsIdleAfter / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			cutoff := time.Now().Add(-s.opts.NsIdleAfter).UnixNano()
			s.mu.Lock()
			_, err := s.reg.EvictIdle(cutoff)
			s.mu.Unlock()
			if err != nil {
				s.opts.Log.Error("idle eviction failed", "error", err)
			}
		case <-s.stop:
			return
		}
	}
}
