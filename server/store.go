package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	mpcbf "repro"
	"repro/elastic"
	"repro/internal/snapio"
	"repro/server/ns"
	"repro/server/wire"
	"repro/window"
)

// Store is the durable state behind mpcbfd: a sharded MPCBF plus a
// write-ahead log and periodic snapshots.
//
// Durability contract: a mutation is acknowledged (the method returns
// nil / its success flag) only after it has been applied in memory AND
// appended to the WAL under the configured fsync policy. With SyncAlways
// every acknowledged mutation survives a crash; with SyncInterval the
// exposure window is the sync interval; with SyncNever the OS decides.
// Mutations are applied before they are logged, so a WAL record always
// describes a mutation that succeeded — replay never re-applies a failed
// delete — and a crash between apply and log can only lose an
// *unacknowledged* mutation.
//
// Snapshot protocol: under the mutation lock the WAL is rotated to a
// fresh segment and the state streamed into a temp file; the written
// state then covers every record in segments below the new sequence
// number. Outside the lock the temp file is fsynced, atomically renamed
// to snapshot-<seq>.snap, and read back to verify it loads; only then
// are predecessors pruned — keeping one previous snapshot generation and
// the segments that cover it as a fallback. Recovery loads the newest
// snapshot that unmarshals cleanly, replays every surviving segment at
// or above its sequence number, and truncates any torn tail off the live
// segment before appending to it.
type Store struct {
	opts StoreOptions

	// mu serializes mutations against each other and against the
	// rotate+write step of a snapshot. Reads go straight to the filter,
	// which has its own per-shard locks; each filter's state sits behind
	// one atomic pointer (see ns.Entry) because an eviction, a recovery
	// or a replica bootstrap swaps it while reads are in flight.
	mu  sync.Mutex
	wal *wal

	// reg holds every filter: the pinned default entry — namespace "" —
	// and the named namespaces (see ns_store.go). walCtx is the WAL's
	// current selection context: the entry the last NS_SELECT record
	// named, the default at every segment boundary. Guarded by s.mu on
	// the append path and by apply-path serialization during replay.
	reg    *ns.Registry
	walCtx *ns.Entry

	// applySc is the batch scratch of WAL replay and replica apply, which
	// s.mu and the apply path's serialization keep to one goroutine.
	applySc mpcbf.BatchScratch

	rotHist Histogram // window rotation latency (ns)

	snapshots    atomic.Uint64
	lastSnapshot atomic.Int64 // unix nanos, 0 = never
	replayed     int          // records replayed at open

	// onApply, when set, observes each replicated WAL range applied to a
	// replica store: segment seq, byte range [off, off+n), record count,
	// and apply duration. The serving layer points it at the tracer so
	// replica-apply spans land in /debug/traces without the store
	// importing the tracing types.
	onApply func(seq uint64, off int64, n int, recs int, d time.Duration)

	bg     sync.WaitGroup
	stop   chan struct{}
	closed atomic.Bool
}

// SetApplyObserver installs the replica-apply observer. Call before
// serving; nil disables.
func (s *Store) SetApplyObserver(fn func(seq uint64, off int64, n int, recs int, d time.Duration)) {
	s.mu.Lock()
	s.onApply = fn
	s.mu.Unlock()
}

// StoreOptions configures OpenStore. Filter geometry options are used
// only when no snapshot or WAL exists yet; an existing store carries its
// geometry in the snapshot.
type StoreOptions struct {
	// Dir is the data directory (created if absent).
	Dir string
	// Filter is the geometry for a fresh store.
	Filter mpcbf.Options
	// Shards is the shard count for a fresh store (default 16).
	Shards int
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the ticker period under SyncInterval (default 100ms).
	SyncEvery time.Duration
	// SnapshotEvery starts a background snapshot loop when positive.
	SnapshotEvery time.Duration
	// Window, when positive, runs the store in sliding-window mode: state
	// is a ring of Generations filters rotating every Window/Generations,
	// keys expire after at most Window, and the WAL additionally records
	// rotations and TTL placements (see window_store.go). Like the filter
	// geometry, the mode is sticky: opening an existing non-windowed
	// store with Window set (or vice versa) is an error on a primary.
	Window time.Duration
	// Generations is the window ring size G (default 4; windowed only).
	Generations int
	// Elastic runs the store in elastic mode: state is an elastic.Filter
	// chain that grows a new generation when the head saturates, and the
	// WAL additionally records growth and import events (see
	// elastic_store.go). Sticky like Window, and mutually exclusive with
	// it: a window expires whole generations on a clock, which a growing
	// chain cannot reconcile with.
	Elastic bool
	// ElasticFPR is the chain-wide false positive bound (elastic only;
	// 0 derives it from the seed geometry — see elastic.Options).
	ElasticFPR float64
	// NsDefaults is the default per-namespace filter configuration; zero
	// fields get the ns package's hard fallbacks. Per-namespace CREATE_NS
	// overrides resolve against it.
	NsDefaults ns.Config
	// NsQuota bounds the summed resident bytes of all named namespaces;
	// least-recently-touched namespaces are evicted (snapshot-on-evict,
	// recover-on-touch) to fit. <= 0: unlimited.
	NsQuota int64
	// NsIdleAfter evicts namespaces untouched for this long (0: off).
	NsIdleAfter time.Duration
	// Replica opens the store as a replication target: its WAL mirrors a
	// primary's segment files byte-for-byte (via ReplicaApply /
	// ReplicaBootstrap), so the store never snapshots on its own — a
	// snapshot would rotate the WAL and desynchronize the mirror. The
	// snapshot loop is disabled, Close skips the final snapshot, and
	// Snapshot returns an error.
	Replica bool
	// Log receives operational messages (default slog.Default()). The
	// store logs with component=store attached.
	Log *slog.Logger
}

func (o *StoreOptions) setDefaults() {
	if o.Shards <= 0 {
		o.Shards = 16
	}
	if o.Window > 0 && o.Generations <= 0 {
		o.Generations = 4
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.Log == nil {
		o.Log = slog.Default()
	}
	o.Log = o.Log.With("component", "store")
}

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snapshot-%016x.snap", seq))
}

// listSnapshots returns snapshot sequence numbers in dir, ascending.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "snapshot-%016x.snap", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// OpenStore opens (or initializes) the store in opts.Dir: newest valid
// snapshot first, then WAL replay, then background sync/snapshot loops.
func OpenStore(opts StoreOptions) (*Store, error) {
	opts.setDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}

	snaps, err := listSnapshots(opts.Dir)
	if err != nil {
		return nil, err
	}
	// Evict files staged by a load that crashed or was refused were never
	// published.
	if stale, err := filepath.Glob(filepath.Join(opts.Dir, "ns-*.snap"+stagedSuffix)); err == nil {
		for _, path := range stale {
			os.Remove(path)
		}
	}
	if opts.Elastic && opts.Window > 0 {
		return nil, errors.New("server: -elastic and -window are mutually exclusive (a window expires whole generations on a clock; a growing chain cannot reconcile with that)")
	}
	s := &Store{opts: opts, stop: make(chan struct{})}
	var (
		snap    snapState
		snapSeq uint64 // replay segments >= snapSeq
	)
	// Newest snapshot that loads cleanly wins; a corrupt one is logged and
	// skipped so a bad final snapshot degrades to the previous retained
	// one plus a longer replay, not to data loss. Snapshots that exist but
	// all fail to load are a hard error: silently starting from an empty
	// filter would masquerade as data loss.
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := s.loadSnapshot(snapshotPath(opts.Dir, snaps[i]))
		if err == nil {
			snap, snapSeq = st, snaps[i]
			break
		}
		opts.Log.Warn("skipping corrupt snapshot", "seq", snaps[i], "error", err)
	}
	base := snap.base
	if base == (ns.State{}) {
		if len(snaps) > 0 {
			return nil, fmt.Errorf("server: %d snapshot file(s) in %s but none loads cleanly; refusing to start from an empty filter (restore a snapshot or clear the directory to reinitialize)", len(snaps), opts.Dir)
		}
		switch {
		case opts.Window > 0:
			base.Window, err = window.New(windowOptionsFrom(opts))
			if err != nil {
				return nil, fmt.Errorf("server: fresh window: %w", err)
			}
		case opts.Elastic:
			base.Elastic, err = elastic.New(elasticOptionsFrom(opts))
			if err != nil {
				return nil, fmt.Errorf("server: fresh elastic chain: %w", err)
			}
		default:
			base.Filter, err = mpcbf.NewSharded(opts.Filter, opts.Shards)
			if err != nil {
				return nil, fmt.Errorf("server: fresh filter: %w", err)
			}
		}
	}
	// The mode — plain, windowed, or elastic — is a property of the
	// durable state, like the filter geometry: flipping -window or
	// -elastic against an existing store of another kind is a
	// configuration error, not a migration. A replica adopts whatever its
	// local snapshot (mirrored from the primary) encodes, since its next
	// bootstrap would overwrite the mode anyway.
	windowed, elasticMode := base.Window != nil, base.Elastic != nil
	switch {
	case opts.Replica:
		if (opts.Window > 0) != windowed || opts.Elastic != elasticMode {
			opts.Log.Warn("replica adopting snapshot mode over flags", "windowed", windowed, "elastic", elasticMode)
		}
	case opts.Window > 0 && !windowed:
		return nil, fmt.Errorf("server: store in %s is not windowed; drop -window or use a fresh directory", opts.Dir)
	case opts.Window <= 0 && windowed:
		return nil, fmt.Errorf("server: store in %s is windowed; pass -window or use a fresh directory", opts.Dir)
	case opts.Elastic && !elasticMode:
		return nil, fmt.Errorf("server: store in %s is not elastic; drop -elastic or use a fresh directory", opts.Dir)
	case !opts.Elastic && elasticMode:
		return nil, fmt.Errorf("server: store in %s is elastic; pass -elastic or use a fresh directory", opts.Dir)
	}

	// The registry must exist before replay: the replayed tail can carry
	// NS_CREATE/NS_SELECT records, and every snapshot-installed namespace
	// must start in its snapshot state (the load rewrote evict files from
	// the container) so tail replay lands on the right bytes.
	s.reg = ns.NewRegistry(s.nsRegistryOptions())
	s.reg.Default().Replace(base)
	if err := s.installNamespaces(&snap); err != nil {
		return nil, err
	}
	if err := s.reg.EnsureQuota(nil); err != nil {
		return nil, fmt.Errorf("server: namespace quota at open: %w", err)
	}

	segs, err := listWALSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	// The live segment — the one appends continue into — is decided up
	// front so replay can report the byte length of its valid record
	// prefix: a torn or corrupt tail left by a crash must be truncated
	// before new records are appended, or everything written after the
	// garbage would be invisible to the next replay.
	walSeq := snapSeq
	if walSeq == 0 {
		walSeq = 1
	}
	if len(segs) > 0 && segs[len(segs)-1] > walSeq {
		walSeq = segs[len(segs)-1]
	}
	tailValid := int64(-1) // -1: the live segment does not exist yet
	var replayedBytes int64
	s.walCtx = s.reg.Default()
	for _, seq := range segs {
		if seq < snapSeq {
			continue // covered by the snapshot
		}
		n, valid, err := s.replaySegment(walPath(opts.Dir, seq))
		if err != nil {
			return nil, fmt.Errorf("server: replay wal seq %d: %w", seq, err)
		}
		s.replayed += n
		replayedBytes += valid
		if seq == walSeq {
			tailValid = valid
		}
	}
	s.wal, err = openWAL(opts.Dir, walSeq, opts.Sync, tailValid)
	if err != nil {
		return nil, err
	}
	// Seed the replication counters from the recovered segments so the
	// cumulative record/byte totals shipped to replicas stay monotonic
	// across a restart (approximately: pruned segments are gone).
	s.wal.setBaseline(uint64(s.replayed), uint64(replayedBytes))

	if opts.Sync == SyncInterval {
		s.bg.Add(1)
		go s.syncLoop()
	}
	if opts.SnapshotEvery > 0 && !opts.Replica {
		s.bg.Add(1)
		go s.snapshotLoop()
	}
	// Primaries drive the window clock of the default filter and of every
	// windowed namespace; replicas receive rotations as mirrored WAL
	// records, so their rings stay byte-identical. Idle eviction runs on
	// primaries and replicas alike — residency is local policy.
	if !opts.Replica {
		s.reg.KickRotate(s.reg.Default())
		s.bg.Add(1)
		go s.rotateLoop()
	}
	if opts.NsIdleAfter > 0 {
		s.bg.Add(1)
		go s.nsIdleLoop()
	}
	return s, nil
}

// batchApplier feeds WAL-ordered records into the filters, batching runs
// of same-op records through the parallel batch paths. Per-shard order
// is preserved inside a batch, so the result is identical to one-by-one
// application. Apply errors are logged and skipped: a record describes a
// mutation that succeeded live, so an apply failure means counter
// divergence from a lost earlier record, and dropping the op is strictly
// safer than aborting recovery or a replication stream. Keys handed to
// add may alias the scan buffer — scanRecords allocates each record body
// fresh, so they stay valid until the flush.
type batchApplier struct {
	s       *Store
	context string // "replay" or "replicate", for log lines
	op      byte
	rot     int // pending batch's rotation count (walOpInsertTTL only)
	keys    [][]byte
}

const applierFlushAt = 4096

func (a *batchApplier) add(op byte, key []byte) error {
	e := a.s.walCtx
	switch op {
	case wire.OpInsert, wire.OpDelete:
		if op != a.op {
			a.flush()
			a.op = op
		}
		a.keys = append(a.keys, key)
	case walOpInsertTTL:
		if !e.Windowed() {
			return fmt.Errorf("ttl record for non-windowed namespace %q", e.Name())
		}
		r, k, err := decodeTTLBody(key)
		if err != nil {
			return err
		}
		if op != a.op || r != a.rot {
			a.flush()
			a.op, a.rot = op, r
		}
		a.keys = append(a.keys, k)
	case walOpWindowRotate:
		// A rotation is a batch boundary: everything logged before it must
		// land in the pre-rotation ring position.
		a.flush()
		if !e.Windowed() {
			return fmt.Errorf("rotate record for non-windowed namespace %q", e.Name())
		}
		if err := a.s.residentLocked(e); err != nil {
			return err
		}
		e.Window().Rotate()
		return nil
	case walOpNsCreate:
		// Namespace lifecycle records are flush barriers too: pending keys
		// belong to the pre-event selection context.
		a.flush()
		return a.s.applyNsCreate(key)
	case walOpNsDrop:
		a.flush()
		return a.s.applyNsDrop(key)
	case walOpNsSelect:
		a.flush()
		return a.s.applyNsSelect(key)
	case walOpElasticGrow:
		// Growth is a flush barrier for the same reason rotation is:
		// everything logged before it must land in the pre-growth head.
		a.flush()
		return a.s.applyElasticGrow()
	case walOpElasticImport:
		a.flush()
		return a.s.applyElasticImport(key)
	default:
		return fmt.Errorf("unknown wal op 0x%02x", op)
	}
	if len(a.keys) >= applierFlushAt {
		a.flush()
	}
	return nil
}

// flush applies the pending batch to the selected filter. A named target
// may have been evicted mid-stream by quota pressure from another
// namespace's create — it is recovered first.
func (a *batchApplier) flush() {
	if len(a.keys) == 0 {
		return
	}
	e := a.s.walCtx
	err := a.s.residentLocked(e)
	if err == nil {
		sc := &a.s.applySc
		switch a.op {
		case wire.OpInsert:
			err = e.InsertBatch(a.keys, sc)
		case wire.OpDelete:
			_, err = e.DeleteBatch(a.keys, sc)
		case walOpInsertTTL:
			err = e.Window().InsertRotationsBatch(a.keys, a.rot, sc)
		}
	}
	if err != nil {
		a.s.opts.Log.Error("batch apply failed", "context", a.context, "ns", e.Name(), "op", a.op, "error", err)
	}
	a.keys = a.keys[:0]
}

// replaySegment re-applies one segment's records through a batchApplier.
// Each segment opens in the default selection context — the primary's
// append side resets at every rotation — and the context surviving the
// last replayed segment stays live: appends continue into that segment,
// so the next mutation sees the same selection state the WAL tail ends
// in.
func (s *Store) replaySegment(path string) (int, int64, error) {
	s.walCtx = s.reg.Default()
	a := &batchApplier{s: s, context: "replay"}
	n, valid, err := replayWAL(path, a.add)
	a.flush()
	return n, valid, err
}

// --- resolving a namespace name to its filter -----------------------------
//
// Every op names its target by namespace; the empty name is the pinned
// default entry, found without a map lookup, never touched for LRU and
// never evicted.

func errUnknownNS(name []byte) error { return fmt.Errorf("server: unknown namespace %q", name) }

// entryLocked resolves name for a mutation or a locked read, recovering
// an evicted namespace and touching it. An unknown name is created from
// the daemon's defaults when create is set (logging NS_CREATE with the
// resolved config), else it resolves to nil. Caller holds s.mu.
func (s *Store) entryLocked(name []byte, create bool) (*ns.Entry, error) {
	e := s.reg.Lookup(name)
	switch {
	case e == nil && !create:
		return nil, nil
	case e == nil:
		cfg, err := s.reg.Resolve(ns.Config{})
		if err != nil {
			return nil, err
		}
		e, _, err = s.nsCreateLocked(string(name), cfg, nil)
		return e, err
	}
	if err := s.residentLocked(e); err != nil {
		return nil, err
	}
	s.touch(e)
	return e, nil
}

// knownEntryLocked is entryLocked for ops that never create: an unknown
// name is an error.
func (s *Store) knownEntryLocked(name []byte) (*ns.Entry, error) {
	e, err := s.entryLocked(name, false)
	if err == nil && e == nil {
		err = errUnknownNS(name)
	}
	return e, err
}

// windowEntryLocked is entryLocked for the TTL paths: the target must be
// windowed, and lazy creation is refused up front when the defaults are
// not windowed, so a bad TTL insert cannot create a namespace as a side
// effect.
func (s *Store) windowEntryLocked(name []byte) (*ns.Entry, error) {
	if e := s.reg.Lookup(name); e == nil {
		cfg, err := s.reg.Resolve(ns.Config{})
		if err != nil {
			return nil, err
		}
		if !cfg.Windowed() {
			return nil, fmt.Errorf("server: namespace %q is not windowed (defaults are not windowed; CREATE_NS it with a window)", name)
		}
	} else if !e.Windowed() {
		if e.Pinned() {
			return nil, errNotWindowed
		}
		return nil, fmt.Errorf("server: namespace %q is not windowed", name)
	}
	return s.entryLocked(name, true)
}

// residentLocked recovers an evicted entry and re-enforces the quota so
// the recovery itself cannot push resident bytes over it. The pinned
// default is always resident.
func (s *Store) residentLocked(e *ns.Entry) error {
	if e.Resident() {
		return nil
	}
	if err := s.reg.Recover(e); err != nil {
		return err
	}
	return s.reg.EnsureQuota(e)
}

// touch records an access to a named entry for LRU and idle eviction.
func (s *Store) touch(e *ns.Entry) {
	if !e.Pinned() {
		e.Touch(s.reg.Now())
	}
}

// --- mutations --------------------------------------------------------------

// mutateEnq applies one data mutation — op is its wire opcode: INSERT,
// DELETE, their batch forms, or the TTL inserts — to name's filter and
// enqueues its WAL record, preceded by an NS_SELECT when the target
// differs from the last record's. Batches are planned in sc (nil: fresh
// scratch). It returns DELETE_BATCH's per-key flags, which belong to sc,
// and the commit ticket. The mutation lock is held only for
// apply+enqueue — never across the fsync — which is what lets concurrent
// mutations share commit rounds; the caller owes a waitDurable(ticket)
// before acknowledging. Records describe only what succeeded: a failed
// apply logs nothing, and a batch delete logs exactly the keys it
// removed.
func (s *Store) mutateEnq(op byte, name, key []byte, keys [][]byte, ttl time.Duration, sc *mpcbf.BatchScratch, tr *reqTrace) (ok []bool, ticket uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ttlOp := op == wire.OpInsertTTL || op == wire.OpInsertTTLBatch
	var e *ns.Entry
	if ttlOp {
		e, err = s.windowEntryLocked(name)
	} else {
		e, err = s.entryLocked(name, true)
	}
	if err != nil {
		return nil, 0, err
	}
	t0 := tr.now()
	// What the WAL logs: one record per key, the batch forms under their
	// single-key op, and a TTL insert with its rotation count as prefix.
	// A single key goes in as a one-element array, which stays on the
	// stack where a slice literal would escape with keys into the apply.
	walOp, walKeys, one := op, keys, [1][]byte{key}
	var extra []byte
	var rot [4]byte
	switch op {
	case wire.OpInsert:
		err = e.Insert(key)
		walKeys = one[:]
	case wire.OpDelete:
		err = e.Delete(key)
		walKeys = one[:]
	case wire.OpInsertBatch:
		err = e.InsertBatch(keys, sc)
		walOp = wire.OpInsert
	case wire.OpDeleteBatch:
		ok, _ = e.DeleteBatch(keys, sc)
		walOp = wire.OpDelete
	default:
		w := e.Window()
		r := w.Generations()
		if ttl >= 0 { // negative = overflowed u64 nanos: treat as full span
			r = w.RotationsFor(ttl)
		}
		if op == wire.OpInsertTTL {
			err = w.InsertRotations(key, r)
			walKeys = one[:]
		} else {
			err = w.InsertRotationsBatch(keys, r, sc)
		}
		walOp, extra = walOpInsertTTL, binary.LittleEndian.AppendUint32(rot[:0], uint32(r))
	}
	if err != nil {
		return nil, 0, err
	}
	tr.addFilter(t0)
	if err := s.selectLocked(e); err != nil {
		return ok, 0, err
	}
	ticket, err = s.wal.EnqueueBatch(walOp, extra, walKeys, ok, tr)
	if err != nil {
		return ok, 0, err
	}
	// An insert that tipped an elastic head past its growth trigger grows
	// the chain in the same commit round; the grow ticket supersedes the
	// data ticket so the ack covers both.
	if op == wire.OpInsert || op == wire.OpInsertBatch {
		if gt := s.growEnqLocked(e); gt != 0 {
			ticket = gt
		}
	}
	return ok, ticket, nil
}

// waitDurable blocks until the ticket's WAL records are durable per the
// sync policy. Ticket 0 (nothing logged) returns immediately.
func (s *Store) waitDurable(ticket uint64, tr *reqTrace) error {
	return s.wal.WaitDurable(ticket, tr)
}

// wait completes a mutateEnq, importEnq, admin or replica enqueue for
// the untraced callers: its error, else the commit wait.
func (s *Store) wait(ticket uint64, err error) error {
	if err != nil {
		return err
	}
	return s.wal.WaitDurable(ticket, nil)
}

// Insert applies and logs one insert to the default filter.
func (s *Store) Insert(key []byte) error {
	_, ticket, err := s.mutateEnq(wire.OpInsert, nil, key, nil, 0, nil, nil)
	return s.wait(ticket, err)
}

// Delete applies and logs one delete from the default filter. Deleting
// an absent key fails without a WAL record.
func (s *Store) Delete(key []byte) error {
	_, ticket, err := s.mutateEnq(wire.OpDelete, nil, key, nil, 0, nil, nil)
	return s.wait(ticket, err)
}

// InsertBatch applies and logs a batch with a single fsync. On a batch
// error (possible only under the strict overflow policy) nothing is
// logged and the error is returned; the partially applied batch is
// unacknowledged and carries no durability promise.
func (s *Store) InsertBatch(keys [][]byte) error {
	_, ticket, err := s.mutateEnq(wire.OpInsertBatch, nil, nil, keys, 0, nil, nil)
	return s.wait(ticket, err)
}

// DeleteBatch applies a batch of deletes and logs exactly the subset
// that succeeded, with a single fsync. The returned flags are
// order-preserving.
func (s *Store) DeleteBatch(keys [][]byte) ([]bool, error) {
	ok, ticket, err := s.mutateEnq(wire.OpDeleteBatch, nil, nil, keys, 0, nil, nil)
	return ok, s.wait(ticket, err)
}

// InsertTTL inserts key into the default window with a per-key
// lifetime: the key expires no earlier than ttl from now and no later
// than the window span, at rotation granularity. Windowed stores only.
func (s *Store) InsertTTL(key []byte, ttl time.Duration) error {
	_, ticket, err := s.mutateEnq(wire.OpInsertTTL, nil, key, nil, ttl, nil, nil)
	return s.wait(ticket, err)
}

// InsertTTLBatch inserts a batch of keys sharing one TTL, with a single
// fsync. Windowed stores only.
func (s *Store) InsertTTLBatch(keys [][]byte, ttl time.Duration) error {
	_, ticket, err := s.mutateEnq(wire.OpInsertTTLBatch, nil, nil, keys, ttl, nil, nil)
	return s.wait(ticket, err)
}

// --- reads ------------------------------------------------------------------
//
// Reads are lock-free while the filter is resident: the default costs
// one atomic load plus the filter. An evicted namespace answers ok=false
// from its entry, and the read recovers it under s.mu and retries —
// answering from nothing would be a false negative, which the filter
// contract forbids. An unknown namespace is empty.

// recoverForRead recovers e for a read that found it evicted. It
// re-checks the registry under the lock: a concurrently dropped (or
// dropped-and-recreated) namespace resolves to nil and reads as absent.
func (s *Store) recoverForRead(name []byte, e *ns.Entry) (*ns.Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reg.Lookup(name) != e {
		return nil, nil
	}
	return e, s.residentLocked(e)
}

// live returns name's filter for a lock-free read, or nil for an unknown
// namespace. The pinned default is always resident and never touched,
// so it answers straight from its entry; a named namespace found evicted
// is recovered under s.mu first.
func (s *Store) live(name []byte) (ns.Filter, error) {
	if len(name) == 0 {
		return s.reg.Default().Live(), nil
	}
	for e := s.reg.Lookup(name); e != nil; {
		if f := e.Live(); f != nil {
			s.touch(e)
			return f, nil
		}
		var err error
		if e, err = s.recoverForRead(name, e); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// noFilter answers for an unknown namespace: a chain of no generations,
// which holds no key.
var noFilter mpcbf.Chain

// containsBatch answers membership for a batch, order-preserving, on the
// calling goroutine into sc (nil: fresh scratch); the result belongs to
// sc, for an unknown namespace too.
func (s *Store) containsBatch(name []byte, keys [][]byte, sc *mpcbf.BatchScratch) ([]bool, error) {
	f, err := s.live(name)
	switch {
	case err != nil:
		return nil, err
	case f == nil:
		return noFilter.ContainsBatchInto(keys, sc), nil
	}
	return f.ContainsBatchInto(keys, sc), nil
}

// nsLen returns name's element count without forcing recovery: an
// evicted namespace reports its count at last marshal, which is exact
// (evicted state cannot mutate). 0 for an unknown namespace.
func (s *Store) nsLen(name []byte) int {
	if e := s.reg.Lookup(name); e != nil {
		return e.Len()
	}
	return 0
}

// Contains answers membership in the default filter.
func (s *Store) Contains(key []byte) bool {
	f, _ := s.live(nil)
	return f != nil && f.Contains(key)
}

// ContainsBatch answers membership in the default filter for a batch,
// order-preserving.
func (s *Store) ContainsBatch(keys [][]byte) []bool {
	vs, _ := s.containsBatch(nil, keys, nil)
	return vs
}

// NsContainsBatch answers membership in a named namespace for a batch,
// order-preserving.
func (s *Store) NsContainsBatch(name []byte, keys [][]byte) ([]bool, error) {
	return s.containsBatch(name, keys, nil)
}

// EstimateCount returns an upper bound on key's multiplicity in the
// default filter.
func (s *Store) EstimateCount(key []byte) int {
	if f, _ := s.live(nil); f != nil {
		return f.EstimateCount(key)
	}
	return 0
}

// Len returns the default filter's element count.
func (s *Store) Len() int { return s.nsLen(nil) }

// Filter exposes the default filter for read-only inspection (metrics:
// fill ratio, saturated words, memory bits). Nil in windowed and elastic
// modes — use Window or Elastic instead.
func (s *Store) Filter() *mpcbf.Sharded { return s.reg.Default().Filter() }

// marshal returns a consistent point-in-time encoding of name's state
// (the DUMP op). For "" that is the whole store — the default filter,
// inside the namespace container when any namespace exists; for a name,
// that namespace alone. Identical bytes on primary and replica at the
// same replication position.
func (s *Store) marshal(name []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.knownEntryLocked(name)
	switch {
	case err != nil:
		return nil, err
	case e.Pinned():
		return s.marshalLocked()
	}
	return e.Marshal()
}

// MarshalFilter returns a consistent point-in-time encoding of the whole
// store (DUMP of the default namespace). Mutations are blocked for the
// marshal.
func (s *Store) MarshalFilter() ([]byte, error) { return s.marshal(nil) }

// encodeLocked writes the store's state, the payload of snapshots, DUMP
// and replication bootstrap, to w. With namespaces present the encoding
// is the self-contained container of ns_store.go; without them it stays
// the bare default-filter encoding old tooling understands. Caller holds
// s.mu.
func (s *Store) encodeLocked(w *snapio.Writer) error {
	if s.reg.Len() == 0 {
		return s.reg.Default().Encode(w)
	}
	return s.encodeNsContainerLocked(w)
}

// marshalLocked returns encodeLocked's bytes (DUMP) in one buffer sized
// up front. Caller holds s.mu.
func (s *Store) marshalLocked() ([]byte, error) {
	size := s.reg.Default().MarshaledSize()
	if s.reg.Len() > 0 {
		size = s.nsContainerSizeLocked()
	}
	w := snapio.Append(make([]byte, 0, size))
	if err := s.encodeLocked(&w); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// StoreStats is a point-in-time durability report.
type StoreStats struct {
	WALRecords      uint64
	WALSyncs        uint64
	Snapshots       uint64
	LastSnapshot    time.Time // zero if never
	ReplayedRecords int
}

// Stats reports durability counters.
func (s *Store) Stats() StoreStats {
	records, syncs := s.wal.Stats()
	st := StoreStats{
		WALRecords:      records,
		WALSyncs:        syncs,
		Snapshots:       s.snapshots.Load(),
		ReplayedRecords: s.replayed,
	}
	if ns := s.lastSnapshot.Load(); ns != 0 {
		st.LastSnapshot = time.Unix(0, ns)
	}
	return st
}

// WALHists returns plain-value views of the WAL's fsync-latency (ns)
// and enqueue-batch-size histograms.
func (s *Store) WALHists() (fsync, batch HistSnapshot) {
	return s.wal.fsyncHist.Snapshot(), s.wal.batchHist.Snapshot()
}

// WALGroupHists returns the group-commit histograms: records per commit
// round and commit-round latency (ns).
func (s *Store) WALGroupHists() (group, commit HistSnapshot) {
	return s.wal.groupHist.Snapshot(), s.wal.commitHist.Snapshot()
}

// WALGroupStats reports commit rounds completed and callers currently
// blocked in WaitDurable.
func (s *Store) WALGroupStats() (commits uint64, waiters int64) {
	return s.wal.GroupStats()
}

// Snapshot writes a point-in-time snapshot and truncates the WAL behind
// it. Mutations are blocked only while the WAL rotates and the state
// streams into the snapshot's temp file; the fsync, rename, verify and
// cleanup happen outside the lock. Refused on a replica: its WAL mirrors
// the primary's segments, and a local rotation would desynchronize the
// mirror.
func (s *Store) Snapshot() error {
	if s.opts.Replica {
		return errors.New("server: replica store does not snapshot (its WAL mirrors the primary)")
	}
	_, _, _, err := s.snapshot()
	return err
}

// snapshot is the shared snapshot core: it returns the new live segment
// the stream continues into and the WAL's cumulative counters at the
// rotation point — with the snapshot file, everything a replication
// bootstrap frame needs.
func (s *Store) snapshot() (newSeq uint64, cumRecords, cumBytes uint64, err error) {
	tmp, newSeq, cumRecords, cumBytes, err := s.cut()
	if err != nil {
		return 0, 0, 0, err
	}
	final := snapshotPath(s.opts.Dir, newSeq)
	if err := finishSnapFile(tmp, final); err != nil {
		return 0, 0, 0, fmt.Errorf("server: snapshot write: %w", err)
	}

	// Read the snapshot back before deleting anything it obsoletes: if
	// what landed on disk does not load, the predecessors are still the
	// only recoverable state and must survive.
	if err := verifySnapshot(final); err != nil {
		return 0, 0, 0, fmt.Errorf("server: snapshot verify: %w", err)
	}

	s.snapshots.Add(1)
	s.lastSnapshot.Store(time.Now().UnixNano())
	s.cleanup(newSeq)
	return newSeq, cumRecords, cumBytes, nil
}

// cut is the part of a snapshot that blocks mutations: under s.mu it
// rotates the WAL, so the state covers every record in the segments
// below the new one, and streams the state into the new snapshot's temp
// file. It returns that file, every byte written but none yet fsynced,
// the new live segment, and the WAL's cumulative counters at the
// rotation. A failed write leaves the WAL rotated, which costs recovery
// nothing: it replays every segment above the snapshot it loads.
func (s *Store) cut() (tmp *os.File, seq uint64, cumRecords, cumBytes uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq, err = s.wal.Rotate(); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("server: snapshot rotate: %w", err)
	}
	cumRecords, cumBytes = s.wal.CumPos()
	// A fresh segment opens in the default selection context; the next
	// namespaced mutation re-emits its SELECT.
	s.walCtx = s.reg.Default()
	if tmp, err = createSnapFile(snapshotPath(s.opts.Dir, seq)+".tmp", s.encodeLocked); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("server: snapshot write: %w", err)
	}
	return tmp, seq, cumRecords, cumBytes, nil
}

// cleanup removes WAL segments and snapshots made obsolete by
// snapshot-<keepSeq>, always retaining one predecessor snapshot
// generation and the segments that cover it: if the newest snapshot is
// later found corrupt, recovery falls back to the previous one and
// replays forward from its sequence number. Failures are logged, not
// fatal: stale files cost disk, never correctness.
func (s *Store) cleanup(keepSeq uint64) {
	// floor: everything below it is unreachable by recovery. With a
	// predecessor snapshot P < keepSeq retained, recovery may load P and
	// needs segments seq >= P, so the floor drops to P.
	floor := keepSeq
	snaps, err := listSnapshots(s.opts.Dir)
	if err != nil {
		s.opts.Log.Warn("cleanup: list snapshots", "error", err)
		return
	}
	for _, seq := range snaps {
		if seq < keepSeq {
			floor = seq // snaps is ascending: ends at the newest predecessor
		}
	}
	for _, seq := range snaps {
		if seq < floor {
			if err := os.Remove(snapshotPath(s.opts.Dir, seq)); err != nil {
				s.opts.Log.Warn("cleanup: remove snapshot", "seq", seq, "error", err)
			}
		}
	}
	if segs, err := listWALSegments(s.opts.Dir); err == nil {
		for _, seq := range segs {
			if seq < floor {
				if err := os.Remove(walPath(s.opts.Dir, seq)); err != nil {
					s.opts.Log.Warn("cleanup: remove wal segment", "seq", seq, "error", err)
				}
			}
		}
	}
}

func (s *Store) syncLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.wal.Sync(); err != nil {
				s.opts.Log.Error("wal sync failed", "error", err)
			}
		case <-s.stop:
			return
		}
	}
}

func (s *Store) snapshotLoop() {
	defer s.bg.Done()
	t := time.NewTicker(s.opts.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.Snapshot(); err != nil {
				s.opts.Log.Error("background snapshot failed", "error", err)
			}
		case <-s.stop:
			return
		}
	}
}

// Close stops background loops, takes a final snapshot (primaries only —
// a replica restart recovers by replaying its mirrored segments), and
// closes the WAL. Idempotent.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stop)
	s.bg.Wait()
	var errs []error
	if !s.opts.Replica {
		if err := s.Snapshot(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.wal.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// syncDir fsyncs a directory so a rename survives power loss; best
// effort on platforms where directories cannot be fsynced.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
