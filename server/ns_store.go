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

	mpcbf "repro"
	"repro/server/ns"
	"repro/server/wire"
	"repro/window"
)

// Multi-tenant namespaces: the store owns a ns.Registry of named filters
// alongside its default (anonymous) state, all sharing the one WAL and
// the one replication stream. Three WAL-only record types make the
// namespace map and the per-record targeting durable:
//
//	NS_CREATE: body = [0xE2][u8 len][name][NsConfigSize-byte resolved config]
//	NS_DROP:   body = [0xE3][u8 len][name]
//	NS_SELECT: body = [0xE4][u8 len][name]   (len 0 = the default state)
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

// nsDefaultWALName is the [u8 len][name] body selecting the default
// state (length 0).
var nsDefaultWALName = []byte{0}

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
// store's data directory using the same write-fsync-rename-syncdir
// discipline as snapshots.
func (s *Store) nsRegistryOptions() ns.Options {
	dir := s.opts.Dir
	return ns.Options{
		Defaults:  s.opts.NsDefaults,
		Quota:     s.opts.NsQuota,
		IdleAfter: s.opts.NsIdleAfter,
		Workers:   s.opts.BatchWorkers,
		Log:       s.opts.Log,
		Save: func(name string, data []byte) error {
			final := nsSnapPath(dir, name)
			tmp := final + ".tmp"
			if err := writeSnapshotFile(tmp, data); err != nil {
				return err
			}
			if err := os.Rename(tmp, final); err != nil {
				return err
			}
			syncDir(dir)
			return nil
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

// selectLocked ensures the WAL's selection context matches e (nil = the
// default state), emitting an NS_SELECT record when it does not. Caller
// holds s.mu; the enqueued select shares the commit round of whatever
// data record follows it.
func (s *Store) selectLocked(e *ns.Entry) error {
	if s.walCtx == e {
		return nil
	}
	body := nsDefaultWALName
	if e != nil {
		body = e.WALName()
	}
	if _, err := s.wal.Enqueue(walOpNsSelect, body, nil); err != nil {
		return err
	}
	s.walCtx = e
	return nil
}

// nsResidentLocked recovers an evicted entry and re-enforces the quota
// so the recovery itself cannot push resident bytes over it.
func (s *Store) nsResidentLocked(e *ns.Entry) error {
	if e.Resident() {
		return nil
	}
	if err := s.reg.Recover(e); err != nil {
		return err
	}
	return s.reg.EnsureQuota(e)
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

// nsEntryLocked resolves a name to its entry, recovering it if evicted.
// With create set, an unknown name is lazily created from the daemon's
// defaults (logging NS_CREATE with the resolved config); without it, an
// unknown name returns (nil, nil).
func (s *Store) nsEntryLocked(name []byte, create bool) (*ns.Entry, error) {
	if e := s.reg.Lookup(name); e != nil {
		if err := s.nsResidentLocked(e); err != nil {
			return nil, err
		}
		e.Touch(s.reg.Now())
		return e, nil
	}
	if !create {
		return nil, nil
	}
	cfg, err := s.reg.Resolve(ns.Config{})
	if err != nil {
		return nil, err
	}
	e, _, err := s.nsCreateLocked(string(name), cfg, nil)
	return e, err
}

// nsWindowEntryLocked is nsEntryLocked for the TTL paths: lazy creation
// is refused up front when the defaults are not windowed, so a bad TTL
// insert cannot create a namespace as a side effect.
func (s *Store) nsWindowEntryLocked(name []byte) (*ns.Entry, error) {
	if e := s.reg.Lookup(name); e != nil {
		if !e.Windowed() {
			return nil, fmt.Errorf("server: namespace %q is not windowed", name)
		}
		if err := s.nsResidentLocked(e); err != nil {
			return nil, err
		}
		e.Touch(s.reg.Now())
		return e, nil
	}
	cfg, err := s.reg.Resolve(ns.Config{})
	if err != nil {
		return nil, err
	}
	if !cfg.Windowed() {
		return nil, fmt.Errorf("server: namespace %q is not windowed (defaults are not windowed; CREATE_NS it with a window)", name)
	}
	e, _, err := s.nsCreateLocked(string(name), cfg, nil)
	return e, err
}

// --- namespaced mutations -------------------------------------------------
//
// Same shape as the default-state *Enq methods: apply under s.mu, then
// enqueue (SELECT as needed, then the data record) and return the commit
// ticket the caller must wait out before acknowledging.

func (s *Store) nsInsertEnq(name, key []byte, tr *reqTrace) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.nsEntryLocked(name, true)
	if err != nil {
		return 0, err
	}
	t0 := tr.now()
	if err := e.Insert(key); err != nil {
		return 0, err
	}
	tr.addFilter(t0)
	if err := s.selectLocked(e); err != nil {
		return 0, err
	}
	ticket, err := s.wal.Enqueue(wire.OpInsert, key, tr)
	if err != nil {
		return 0, err
	}
	// The GROW record (if due) rides the selection this insert just
	// established; its ticket supersedes the data ticket.
	if gt := s.nsGrowEnqLocked(e); gt != 0 {
		ticket = gt
	}
	return ticket, nil
}

func (s *Store) nsDeleteEnq(name, key []byte, tr *reqTrace) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.nsEntryLocked(name, true)
	if err != nil {
		return 0, err
	}
	t0 := tr.now()
	if err := e.Delete(key); err != nil {
		return 0, err
	}
	tr.addFilter(t0)
	if err := s.selectLocked(e); err != nil {
		return 0, err
	}
	return s.wal.Enqueue(wire.OpDelete, key, tr)
}

func (s *Store) nsInsertBatchEnq(name []byte, keys [][]byte, tr *reqTrace) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.nsEntryLocked(name, true)
	if err != nil {
		return 0, err
	}
	t0 := tr.now()
	if err := e.InsertBatch(keys, s.opts.BatchWorkers); err != nil {
		return 0, err
	}
	tr.addFilter(t0)
	if err := s.selectLocked(e); err != nil {
		return 0, err
	}
	ticket, err := s.wal.EnqueueBatch(wire.OpInsert, keys, tr)
	if err != nil {
		return 0, err
	}
	if gt := s.nsGrowEnqLocked(e); gt != 0 {
		ticket = gt
	}
	return ticket, nil
}

func (s *Store) nsDeleteBatchEnq(name []byte, keys [][]byte, tr *reqTrace) ([]bool, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.nsEntryLocked(name, true)
	if err != nil {
		return nil, 0, err
	}
	t0 := tr.now()
	ok, _ := e.DeleteBatch(keys, s.opts.BatchWorkers)
	tr.addFilter(t0)
	if err := s.selectLocked(e); err != nil {
		return nil, 0, err
	}
	ticket, err := s.wal.EnqueueBatchFlags(wire.OpDelete, keys, ok, tr)
	return ok, ticket, err
}

func (s *Store) nsInsertTTLEnq(name, key []byte, ttl time.Duration, tr *reqTrace) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.nsWindowEntryLocked(name)
	if err != nil {
		return 0, err
	}
	w := e.Window()
	r := w.Generations()
	if ttl >= 0 {
		r = w.RotationsFor(ttl)
	}
	t0 := tr.now()
	if err := w.InsertRotations(key, r); err != nil {
		return 0, err
	}
	tr.addFilter(t0)
	if err := s.selectLocked(e); err != nil {
		return 0, err
	}
	return s.wal.EnqueueTTL(walOpInsertTTL, uint32(r), key, tr)
}

func (s *Store) nsInsertTTLBatchEnq(name []byte, keys [][]byte, ttl time.Duration, tr *reqTrace) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.nsWindowEntryLocked(name)
	if err != nil {
		return 0, err
	}
	w := e.Window()
	r := w.Generations()
	if ttl >= 0 {
		r = w.RotationsFor(ttl)
	}
	t0 := tr.now()
	if err := w.InsertRotationsBatch(keys, r); err != nil {
		return 0, err
	}
	tr.addFilter(t0)
	if err := s.selectLocked(e); err != nil {
		return 0, err
	}
	return s.wal.EnqueueTTLBatch(walOpInsertTTL, uint32(r), keys, tr)
}

// --- namespaced reads -----------------------------------------------------
//
// Reads are lock-free while the namespace is resident. An evicted
// namespace answers ok=false from the entry, and the read recovers it
// under s.mu and retries there — answering from nothing would be a false
// negative, which the filter contract forbids. The under-lock retry
// cannot race another eviction: evictions run under s.mu too.

// nsReadEntry recovers e for a read that found it evicted. It re-checks
// the registry under the lock: a concurrently dropped (or
// dropped-and-recreated) namespace reads as absent.
func (s *Store) nsReadEntry(name []byte, e *ns.Entry) (*ns.Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reg.Lookup(name) != e {
		return nil, nil
	}
	if err := s.nsResidentLocked(e); err != nil {
		return nil, err
	}
	e.Touch(s.reg.Now())
	return e, nil
}

// NsContains answers membership in a named namespace. An unknown
// namespace is empty: every key answers false.
func (s *Store) NsContains(name, key []byte) (bool, error) {
	e := s.reg.Lookup(name)
	if e == nil {
		return false, nil
	}
	if v, ok := e.Contains(key); ok {
		e.Touch(s.reg.Now())
		return v, nil
	}
	e, err := s.nsReadEntry(name, e)
	if e == nil || err != nil {
		return false, err
	}
	v, _ := e.Contains(key)
	return v, nil
}

// NsContainsBatch answers membership for a batch, order-preserving.
func (s *Store) NsContainsBatch(name []byte, keys [][]byte) ([]bool, error) {
	return s.nsContainsBatch(name, keys, nil)
}

// nsContainsBatch is NsContainsBatch answering into sc (nil: fresh
// scratch); the result belongs to sc.
func (s *Store) nsContainsBatch(name []byte, keys [][]byte, sc *mpcbf.BatchScratch) ([]bool, error) {
	e := s.reg.Lookup(name)
	if e == nil {
		return make([]bool, len(keys)), nil
	}
	if vs, ok := e.ContainsBatch(keys, sc); ok {
		e.Touch(s.reg.Now())
		return vs, nil
	}
	e, err := s.nsReadEntry(name, e)
	if err != nil {
		return nil, err
	}
	if e == nil {
		return make([]bool, len(keys)), nil
	}
	vs, _ := e.ContainsBatch(keys, sc)
	return vs, nil
}

// NsEstimateCount returns an upper bound on key's multiplicity in a
// named namespace (0 for an unknown namespace).
func (s *Store) NsEstimateCount(name, key []byte) (int, error) {
	e := s.reg.Lookup(name)
	if e == nil {
		return 0, nil
	}
	if n, ok := e.EstimateCount(key); ok {
		e.Touch(s.reg.Now())
		return n, nil
	}
	e, err := s.nsReadEntry(name, e)
	if e == nil || err != nil {
		return 0, err
	}
	n, _ := e.EstimateCount(key)
	return n, nil
}

// NsLen returns a namespace's element count without forcing recovery:
// an evicted namespace reports its count at last marshal, which is
// exact (evicted state cannot mutate).
func (s *Store) NsLen(name []byte) int {
	e := s.reg.Lookup(name)
	if e == nil {
		return 0
	}
	return e.Len()
}

// NsMarshal returns a consistent point-in-time encoding of one
// namespace's state (the namespaced DUMP). Identical bytes on primary
// and replica at the same replication position.
func (s *Store) NsMarshal(name []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.nsEntryLocked(name, false)
	if err != nil {
		return nil, err
	}
	if e == nil {
		return nil, fmt.Errorf("server: unknown namespace %q", name)
	}
	return e.Marshal()
}

// NsWindowStats reports the generation ring of a windowed namespace.
func (s *Store) NsWindowStats(name []byte) (window.Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.nsEntryLocked(name, false)
	if err != nil {
		return window.Stats{}, err
	}
	if e == nil {
		return window.Stats{}, fmt.Errorf("server: unknown namespace %q", name)
	}
	if !e.Windowed() {
		return window.Stats{}, errNotWindowed
	}
	return e.Window().Stats(), nil
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
		s.walCtx = nil
	}
	return s.wal.Enqueue(walOpNsDrop, e.WALName(), tr)
}

// NsList returns all namespace names, sorted.
func (s *Store) NsList() []string { return s.reg.Names() }

// NsStats summarizes one named namespace.
func (s *Store) NsStats(name []byte) (wire.NsStats, error) {
	e := s.reg.Lookup(name)
	if e == nil {
		return wire.NsStats{}, fmt.Errorf("server: unknown namespace %q", name)
	}
	return e.Stats(), nil
}

// DefaultNsStats summarizes the default (anonymous) state in NS_STATS
// shape: always resident, never evicted.
func (s *Store) DefaultNsStats() wire.NsStats {
	st := wire.NsStats{Resident: true}
	if w := s.w(); w != nil {
		st.Windowed = true
		st.Items = uint64(w.Len())
		st.MemoryBits = uint64(w.MemoryBits())
	} else if el := s.elf(); el != nil {
		st.Items = uint64(el.Len())
		st.MemoryBits = uint64(el.MemoryBits())
	} else {
		f := s.f()
		st.Items = uint64(f.Len())
		st.MemoryBits = uint64(f.MemoryBits())
	}
	return st
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
		s.walCtx = nil
	}
	return nil
}

// applyNsSelect replays an NS_SELECT record: subsequent data records
// target the named namespace (recovered if evicted). A select of an
// unknown namespace means the WAL stream is inconsistent — fail loudly
// rather than misdirect counters.
func (s *Store) applyNsSelect(body []byte) error {
	name, rest, err := decodeNsName(body)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("server: trailing bytes in NS_SELECT record")
	}
	if len(name) == 0 {
		s.walCtx = nil
		return nil
	}
	e := s.reg.Lookup(name)
	if e == nil {
		return fmt.Errorf("server: NS_SELECT of unknown namespace %q", name)
	}
	if err := s.nsResidentLocked(e); err != nil {
		return err
	}
	e.Touch(s.reg.Now())
	s.walCtx = e
	return nil
}

// flushNS is batchApplier.flush for records targeting a named
// namespace. The target may have been evicted mid-stream by quota
// pressure from another namespace's create — recover it first.
func (a *batchApplier) flushNS(e *ns.Entry) {
	if err := a.s.nsResidentLocked(e); err != nil {
		a.s.opts.Log.Error("ns batch apply: recover failed", "context", a.context, "ns", e.Name(), "error", err)
		a.keys = a.keys[:0]
		return
	}
	var err error
	switch a.op {
	case wire.OpInsert:
		err = e.InsertBatch(a.keys, a.s.opts.BatchWorkers)
	case wire.OpDelete:
		_, err = e.DeleteBatch(a.keys, a.s.opts.BatchWorkers)
	case walOpInsertTTL:
		err = e.Window().InsertRotationsBatch(a.keys, a.rot)
	}
	if err != nil {
		a.s.opts.Log.Error("ns batch apply failed", "context", a.context, "ns", e.Name(), "error", err)
	}
	a.keys = a.keys[:0]
}

// --- snapshot container ---------------------------------------------------
//
// When any namespace exists, snapshots (and DUMP/bootstrap payloads)
// switch from the bare filter encoding to a container that carries the
// default state plus every namespace — resolved config, residency,
// items, and marshaled state:
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

// encodeNsContainerLocked wraps the already-marshaled default state and
// every namespace into a container. Caller holds s.mu.
func (s *Store) encodeNsContainerLocked(base []byte) ([]byte, error) {
	entries := s.reg.Entries()
	out := make([]byte, 0, 16+len(base)+4)
	out = binary.LittleEndian.AppendUint32(out, nsContainerMagic)
	out = binary.LittleEndian.AppendUint32(out, nsContainerVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(base)))
	out = append(out, base...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(entries)))
	for _, e := range entries {
		out = append(out, e.WALName()...)
		out = wire.AppendNsConfig(out, e.Config().Wire())
		resident := byte(0)
		if e.Resident() {
			resident = 1
		}
		out = append(out, resident)
		out = binary.LittleEndian.AppendUint64(out, uint64(e.Len()))
		var err error
		if e.Resident() {
			var data []byte
			if data, err = e.Marshal(); err == nil {
				out = binary.LittleEndian.AppendUint64(out, uint64(len(data)))
				out = append(out, data...)
			}
		} else {
			// Evicted state cannot mutate: read it straight from the evict
			// file into the container, checksum-verified on the way.
			err = readSnapFile(nsSnapPath(s.opts.Dir, e.Name()), func(r io.Reader, n int64) error {
				out = binary.LittleEndian.AppendUint64(out, uint64(n))
				at := len(out)
				out = append(out, make([]byte, n)...)
				_, err := io.ReadFull(r, out[at:])
				return err
			})
		}
		if err != nil {
			return nil, fmt.Errorf("server: snapshot ns %q: %w", e.Name(), err)
		}
	}
	return out, nil
}

// --- background loops -----------------------------------------------------

// nsRotateLoop drives the window clock of every windowed namespace on a
// primary, sleeping until the earliest due rotation and re-evaluating
// whenever a windowed namespace is created or recovered. Each rotation
// advances one namespace's ring under s.mu and logs SELECT+ROTATE, so
// replicas and recovery advance the same ring at the same WAL position.
func (s *Store) nsRotateLoop() {
	defer s.bg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		e, at, ok := s.reg.NextRotation()
		if !ok {
			select {
			case <-s.reg.RotateKick():
				continue
			case <-s.stop:
				return
			}
		}
		if d := time.Duration(at - time.Now().UnixNano()); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-s.reg.RotateKick():
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
			case <-s.stop:
				timer.Stop()
				return
			}
			continue
		}
		s.nsRotate(e)
	}
}

// nsRotate rotates one namespace's ring and logs it. The entry may have
// been evicted or dropped since the deadline scan; both skip (a
// recovered namespace reschedules itself).
func (s *Store) nsRotate(e *ns.Entry) {
	t0 := time.Now()
	var ticket uint64
	s.mu.Lock()
	w := e.Window()
	if w == nil || s.reg.Lookup([]byte(e.Name())) != e {
		s.mu.Unlock()
		return
	}
	w.Rotate()
	err := s.selectLocked(e)
	if err == nil {
		ticket, err = s.wal.Enqueue(walOpWindowRotate, nil, nil)
	}
	e.SetNextRotate(time.Now().Add(w.RotateEvery()).UnixNano())
	s.mu.Unlock()
	if err == nil {
		err = s.wal.WaitDurable(ticket, nil)
	}
	if err != nil {
		s.opts.Log.Error("namespace rotation failed", "ns", e.Name(), "error", err)
	}
	s.rotHist.ObserveDuration(time.Since(t0))
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
