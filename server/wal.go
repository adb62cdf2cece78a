package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The write-ahead log is a sequence of numbered segment files
// (wal-<seq>.log). Each record is CRC-framed:
//
//	[u32 len LE][u32 crc32(IEEE) of body][body]
//	body = [u8 op][key bytes]
//
// Records are appended for mutations that have already been applied to
// the in-memory filter (apply-then-log), so a record always describes a
// mutation that succeeded; replay therefore never has to guess whether a
// logged delete took effect. A torn tail — short header, short body, or
// CRC mismatch at the end of a segment — marks the end of the durable
// prefix and is discarded silently, exactly like a crash between write
// and fsync.
//
// Segments interlock with snapshots: snapshot-<S>.snap covers every
// record in segments with seq < S, so recovery loads the newest valid
// snapshot and replays segments seq >= S in order.
//
// # Group commit
//
// Appending is split into two phases so fsyncs amortize across
// concurrent writers instead of serializing them:
//
//  1. Enqueue — under the store mutation lock, records are framed
//     directly into an in-memory pending buffer and the caller receives
//     a commit ticket (a monotonic sequence number covering everything
//     enqueued so far).
//  2. WaitDurable — outside the store lock, the caller blocks until a
//     commit round has made its ticket durable. A caller that finds no
//     round in flight leads one: it swaps the pending buffer out,
//     performs ONE write + fsync for every record enqueued by then,
//     advances the durable ticket, and broadcasts. Everyone else sleeps
//     on a condition variable — no per-record channels, no allocation
//     on the wait path.
//
// Every commit round — a WaitDurable leader's, the async committer's,
// FlushedPos, Sync, rotation and Close — runs through roundLocked, and
// one flag, committing, says whether a round is in flight. The flag is
// set, cleared and broadcast only under mu, so a goroutine that saw a
// round in flight is already parked on the condition variable when
// that round ends, and the broadcast wakes it.
//
// Under SyncAlways no caller is released before its bytes are fsync'd —
// the durability contract is unchanged — but N concurrent writers share
// one fsync instead of paying N. Under SyncInterval/SyncNever a
// background committer goroutine drains the pending buffer (kicked on
// the empty→non-empty transition) and fsync stays with the policy's
// ticker / the OS. The record byte layout on disk is exactly what
// single-record appends produced, so replica byte-mirroring and replay
// are unaffected.
//
// Lock order: store.mu → wal.mu. The WAL takes no other lock while it
// holds mu.

// SyncPolicy says when the WAL fsyncs.
type SyncPolicy int

const (
	// SyncAlways fsyncs before a mutation is acknowledged (one fsync may
	// cover many concurrent mutations — group commit). Acknowledged
	// mutations are durable against power loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves fsync to a background ticker; a crash window of
	// at most the interval is traded for throughput.
	SyncInterval
	// SyncNever never fsyncs explicitly; the OS page cache decides.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseSyncPolicy maps the flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always|interval|never)", s)
}

const walRecordHeader = 8 // u32 len + u32 crc

// walPendingCap is the soft bound on the pending buffer under the async
// policies: a WaitDurable caller that finds more than this unwritten
// drains it before returning, so a slow disk back-pressures producers
// instead of growing the heap without bound.
const walPendingCap = 1 << 20

// walRecycleCap bounds the capacity of buffers kept on the swap
// free-list; a rare giant batch does not pin its buffer forever.
const walRecycleCap = 4 << 20

var errWALClosed = errors.New("server: wal closed")

// wal appends mutation records to the current segment file.
type wal struct {
	dir    string
	policy SyncPolicy

	// mu guards the enqueue state: the pending buffer, tickets, logical
	// position, counters, and whether a commit round is in flight. A
	// round writes and fsyncs outside it.
	mu         sync.Mutex
	cond       sync.Cond // broadcast when a round ends or the log closes
	f          walFile   // segment file behind the failpoint seam (see failpoint.go)
	committing bool      // a round is in flight: only its owner touches f
	pending    []byte    // framed records enqueued but not yet written
	spare      []byte    // recycled swap buffer for pending
	seq        uint64
	size       int64 // logical bytes in the current segment, incl. pending
	dirty      bool  // written or pending bytes not yet fsynced
	records    uint64
	syncs      uint64
	enqTicket  uint64 // ticket of the newest enqueued group
	durTicket  uint64 // tickets <= this are committed per policy
	commitErr  error  // sticky: first commit IO failure poisons the log

	// Commit-round attribution for tracing (guarded by mu): the sequence
	// number (groupCommits value), record count, and covered ticket of
	// the most recent round that wrote bytes. A waiter released by a
	// round reads these immediately after the broadcast, so they name
	// the round that covered its ticket (or a successor — attribution is
	// best-effort under races, never blocking).
	lastRoundSeq    uint64
	lastRoundRecs   int
	lastRoundTicket uint64

	// Replication bookkeeping: cumulative counters monotonic across
	// rotations (seeded at open from the retained segments, so they
	// approximate lifetime totals), and a change-notification channel for
	// tailers. The channel is armed lazily by Changed() and closed on the
	// next enqueue or rotation, so a WAL nobody tails never allocates one.
	cumRecords uint64
	cumBytes   uint64
	changed    chan struct{} // nil when no tailer is waiting

	// Committer goroutine (async policies only): kicked on the
	// empty→non-empty pending transition.
	kick      chan struct{}
	stopDrain chan struct{}
	drainDone chan struct{}

	// Observability. fsyncHist: fsync latency (ns). batchHist: records
	// per Enqueue group (the per-request batch size). groupHist: records
	// per commit round (the group-commit amortization factor). commitHist:
	// commit-round latency (ns). waiters: callers currently blocked in
	// WaitDurable. groupCommits: commit rounds that wrote bytes.
	fsyncHist    Histogram
	batchHist    Histogram
	groupHist    Histogram
	commitHist   Histogram
	waiters      atomic.Int64
	groupCommits atomic.Uint64
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq))
}

// openWAL opens (creating if absent) the segment with the given sequence
// number for append. validBytes is the length of the segment's valid
// record prefix as established by replay (-1 when the segment was not
// replayed, i.e. is new): a longer file has a torn or corrupt tail from a
// crash, and appending after that garbage would hide every new record
// from the next replay — so the tail is truncated away, durably, before
// any append is accepted.
func openWAL(dir string, seq uint64, policy SyncPolicy, validBytes int64) (*wal, error) {
	f, err := os.OpenFile(walPath(dir, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size := int64(0)
	if validBytes >= 0 {
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		if fi.Size() > validBytes {
			if err := f.Truncate(validBytes); err != nil {
				f.Close()
				return nil, fmt.Errorf("server: truncate torn wal tail (%d -> %d bytes): %w", fi.Size(), validBytes, err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, err
			}
		}
		size = validBytes
	}
	w := &wal{
		dir:    dir,
		policy: policy,
		f:      wrapWALFile(f),
		seq:    seq,
		size:   size,
	}
	w.cond.L = &w.mu
	if policy != SyncAlways {
		w.kick = make(chan struct{}, 1)
		w.stopDrain = make(chan struct{})
		w.drainDone = make(chan struct{})
		go w.drainLoop()
	}
	return w, nil
}

// drainLoop is the background committer for the async policies: it
// writes pending records out (no fsync — that stays with the policy's
// ticker or the OS) whenever an enqueue kicks it.
func (w *wal) drainLoop() {
	defer close(w.drainDone)
	for {
		select {
		case <-w.kick:
			w.mu.Lock()
			w.roundLocked(false, nil)
			w.mu.Unlock()
		case <-w.stopDrain:
			return
		}
	}
}

// setBaseline seeds the cumulative replication counters from state that
// predates this process (recovered segments). Called once at open,
// before any appends.
func (w *wal) setBaseline(records uint64, bytes uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cumRecords, w.cumBytes = records, bytes
}

// frameRecordLocked appends one CRC-framed record to the pending buffer
// in place — no intermediate body allocation. body = [op][key...] or
// [op][extra...][key...] when extra is non-nil (the TTL rotation-count
// prefix).
func (w *wal) frameRecordLocked(op byte, extra []byte, key []byte) {
	bodyLen := 1 + len(extra) + len(key)
	hdrOff := len(w.pending)
	w.pending = append(w.pending, 0, 0, 0, 0, 0, 0, 0, 0)
	w.pending = append(w.pending, op)
	w.pending = append(w.pending, extra...)
	w.pending = append(w.pending, key...)
	body := w.pending[hdrOff+walRecordHeader:]
	binary.LittleEndian.PutUint32(w.pending[hdrOff:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(w.pending[hdrOff+4:], crc32.ChecksumIEEE(body))
}

// finishEnqueueLocked advances the logical position and counters for a
// group of n records occupying grew bytes, issues the group's ticket,
// and wakes the committer/tailers. Caller holds w.mu.
func (w *wal) finishEnqueueLocked(n int, grew int, tr *reqTrace, t0 time.Time) uint64 {
	w.records += uint64(n)
	w.size += int64(grew)
	w.cumRecords += uint64(n)
	w.cumBytes += uint64(grew)
	w.batchHist.Observe(uint64(n))
	w.dirty = true
	w.enqTicket++
	ticket := w.enqTicket
	w.notifyLocked()
	tr.addWAL(t0)
	if w.kick != nil && len(w.pending) == grew {
		// empty→non-empty transition: wake the async committer.
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
	return ticket
}

// Enqueue frames one record, body [op][key], into the pending buffer and
// returns its commit ticket. The record becomes durable per policy once
// a commit round covering the ticket completes; pass the ticket to
// WaitDurable. Callers serialize enqueues against state mutation (the
// store holds its mutation lock), which is what makes WAL order equal
// apply order.
func (w *wal) Enqueue(op byte, key []byte, tr *reqTrace) (uint64, error) {
	keys := [1][]byte{key}
	return w.EnqueueBatch(op, nil, keys[:], nil, tr)
}

// EnqueueBatch frames one record per key, body [op][extra][key], as one
// ticket (their durability is decided by a single commit round). extra
// is the windowed TTL rotation-count prefix, or nil. When flags is
// non-nil only the keys whose flag is set are logged — the delete-batch
// path logging exactly the subset that succeeded. A group with no
// records returns ticket 0.
func (w *wal) EnqueueBatch(op byte, extra []byte, keys [][]byte, flags []bool, tr *reqTrace) (uint64, error) {
	n := len(keys)
	if flags != nil {
		n = 0
		for _, ok := range flags {
			if ok {
				n++
			}
		}
	}
	if n == 0 {
		return 0, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.enqueueOKLocked(); err != nil {
		return 0, err
	}
	t0 := tr.now()
	tr.setWALPos(w.seq, w.size)
	before := len(w.pending)
	for i, k := range keys {
		if flags == nil || flags[i] {
			w.frameRecordLocked(op, extra, k)
		}
	}
	return w.finishEnqueueLocked(n, len(w.pending)-before, tr, t0), nil
}

// EnqueueRaw appends pre-framed record bytes verbatim — the replica
// apply path, which mirrors the primary's segment bytes instead of
// re-encoding them. The caller has already CRC-validated the records.
func (w *wal) EnqueueRaw(raw []byte, n int) (uint64, error) {
	if len(raw) == 0 {
		return 0, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.enqueueOKLocked(); err != nil {
		return 0, err
	}
	before := len(w.pending)
	w.pending = append(w.pending, raw...)
	return w.finishEnqueueLocked(n, len(w.pending)-before, nil, time.Time{}), nil
}

func (w *wal) enqueueOKLocked() error {
	if w.f == nil {
		return errWALClosed
	}
	return w.commitErr
}

// WaitDurable blocks until the given ticket's records are committed per
// policy. Ticket 0 (nothing enqueued) returns immediately. Under
// SyncAlways the caller returns only after a write+fsync covering the
// ticket, and leads that round itself when none is in flight. Under the
// async policies the caller returns as soon as the pending buffer is
// within bounds, draining it itself when it is not; durability stays
// with the sync ticker / the OS.
func (w *wal) WaitDurable(ticket uint64, tr *reqTrace) error {
	if ticket == 0 {
		return nil
	}
	t0 := tr.now()
	sync := w.policy == SyncAlways
	w.mu.Lock()
	for w.f != nil && w.commitErr == nil &&
		(sync && w.durTicket < ticket || !sync && len(w.pending) > walPendingCap) {
		if !w.committing {
			w.roundLocked(sync, tr)
			continue
		}
		// The round in flight ends with a broadcast under mu, which
		// cannot happen before Wait has parked us.
		w.waiters.Add(1)
		w.cond.Wait()
		w.waiters.Add(-1)
	}
	err := w.commitErr
	if err == nil && w.f == nil && w.durTicket < ticket {
		err = errWALClosed
	}
	if sync && err == nil && tr != nil && w.lastRoundTicket >= ticket {
		tr.setRound(w.lastRoundSeq, w.lastRoundRecs)
	}
	w.mu.Unlock()
	if sync && tr != nil {
		tr.addFsync(time.Since(t0))
	}
	return err
}

// roundLocked runs one commit round and returns the log's error. It
// waits out a round in flight and claims the next, swaps the pending
// buffer out, writes it with a single write outside mu, fsyncs when
// sync is set (and the policy ever fsyncs), then advances the durable
// ticket, releases the claim and broadcasts. Caller holds mu; it is
// released for the IO and held again on return.
func (w *wal) roundLocked(sync bool, tr *reqTrace) error {
	for w.committing {
		w.cond.Wait()
	}
	if w.f == nil {
		return errWALClosed
	}
	if w.commitErr != nil {
		return w.commitErr
	}
	w.committing = true
	t0 := time.Now()
	if sync {
		// Let runnable writers enqueue before the batch is sealed. A
		// blocking fsync does not hand its P off immediately (sysmon
		// retakes it on its own clock), so on few-core hosts writers that
		// arrived "during" the previous fsync are often still waiting to
		// run here; one yield lets them drain into this round instead of
		// each forcing a round of their own. With no other runnable
		// goroutine this is a few nanoseconds.
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
	}
	buf := w.pending
	recs := 0 // frames in the swapped buffer, for the group-size histogram
	for off := 0; off+walRecordHeader <= len(buf); {
		l := int(binary.LittleEndian.Uint32(buf[off:]))
		off += walRecordHeader + l
		recs++
	}
	ticket := w.enqTicket
	dirty := w.dirty
	f := w.f
	w.pending = w.spare[:0]
	w.spare = nil
	w.mu.Unlock()

	var err error
	wrote := len(buf) > 0
	if wrote {
		_, err = f.Write(buf)
	}
	synced := false
	if err == nil && sync && (wrote || dirty) {
		if w.policy != SyncNever {
			ts := time.Now()
			err = f.Sync()
			w.fsyncHist.ObserveDuration(time.Since(ts))
		}
		synced = err == nil
	}

	w.mu.Lock()
	if cap(buf) <= walRecycleCap && w.spare == nil {
		w.spare = buf[:0]
	}
	if err != nil {
		if w.commitErr == nil {
			w.commitErr = err
		}
	} else {
		// durTicket is the SyncAlways ack gate: WaitDurable releases a
		// writer the moment durTicket covers its ticket, so under
		// SyncAlways only a round that actually fsync'd may advance it —
		// a non-sync round (a tailer's FlushedPos) writes bytes that are
		// still only in the page cache. The async policies never gate
		// acks on durTicket, so their non-sync drain rounds advance it
		// freely.
		if (synced || w.policy != SyncAlways) && ticket > w.durTicket {
			w.durTicket = ticket
		}
		if synced {
			w.syncs++
			// Bytes enqueued after the swap are pending again; only a round
			// that drained everything leaves the log clean.
			w.dirty = len(w.pending) > 0
		}
	}
	if wrote {
		round := w.groupCommits.Add(1)
		w.groupHist.Observe(uint64(recs))
		w.commitHist.ObserveDuration(time.Since(t0))
		w.lastRoundSeq = round
		w.lastRoundRecs = recs
		w.lastRoundTicket = ticket
		// The leader's own ticket is always covered by its round.
		tr.setRound(round, recs)
	}
	w.committing = false
	w.cond.Broadcast()
	return w.commitErr
}

// settleLocked runs sync rounds until every enqueued byte is written and
// fsynced per policy. It returns holding mu with no round in flight, so
// the caller can swap or close the segment file before anyone enqueues
// again.
func (w *wal) settleLocked() error {
	for {
		if err := w.roundLocked(true, nil); err != nil {
			return err
		}
		if len(w.pending) == 0 && !w.dirty {
			return nil
		}
	}
}

// notifyLocked wakes every tailer blocked on Changed. The channel is
// armed lazily, so a WAL without tailers pays one nil check here.
func (w *wal) notifyLocked() {
	if w.changed != nil {
		close(w.changed)
		w.changed = nil
	}
}

// Changed returns a channel closed at the next enqueue or rotation. Take
// the channel, check the position, then wait on it: the close-and-replace
// discipline makes that sequence race-free.
func (w *wal) Changed() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.changed == nil {
		w.changed = make(chan struct{})
	}
	return w.changed
}

// Pos returns the current segment and its logical size, counting bytes
// still in the pending buffer. This is the position an appended record
// would land at — and, because records are applied before they are
// logged, the WAL position that exactly matches the in-memory filter
// when the store mutation lock is held.
func (w *wal) Pos() (seq uint64, size int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq, w.size
}

// FlushedPos drains the pending buffer to the segment file (no fsync)
// and returns the current segment and the byte length readable from it.
// Tailers call this before reading so every logical byte is visible on
// disk.
func (w *wal) FlushedPos() (seq uint64, size int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.roundLocked(false, nil); err != nil {
		return 0, 0, err
	}
	// Records enqueued after the commit round are not on disk yet; the
	// readable prefix is the logical size minus what is still pending.
	return w.seq, w.size - int64(len(w.pending)), nil
}

// CumPos returns the cumulative record and byte counters used by
// replication frames.
func (w *wal) CumPos() (records, bytes uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cumRecords, w.cumBytes
}

// Sync drains pending records and fsyncs if anything changed since the
// last sync. Safe to call from a background ticker.
func (w *wal) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	return w.roundLocked(true, nil)
}

// Rotate syncs and closes the current segment and starts seq+1. It
// returns the new sequence number: a snapshot taken of the state at
// rotation time covers every record in segments < newSeq. Commits wait
// only for this drain-and-swap — the caller's snapshot disk write
// happens entirely outside it, so concurrent group commits resume as
// soon as the new segment is open.
func (w *wal) Rotate() (newSeq uint64, err error) {
	return w.rotate(0, 0)
}

// RotateTo jumps to an arbitrary higher segment number — the replica
// apply path following the primary across a rotation (or a bootstrap
// that lands past a gap of pruned segments).
func (w *wal) RotateTo(seq uint64) error {
	// O_TRUNC: the replica starts the new segment at offset 0, so any
	// stale same-named file from an earlier life must not leak a prefix.
	_, err := w.rotate(seq, os.O_TRUNC)
	return err
}

// rotate settles the current segment, then swaps it for segment seq (0:
// the next one).
func (w *wal) rotate(seq uint64, extraFlag int) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.settleLocked(); err != nil {
		return 0, err
	}
	if seq == 0 {
		seq = w.seq + 1
	} else if seq <= w.seq {
		return 0, fmt.Errorf("server: wal rotate to %d, already at %d", seq, w.seq)
	}
	if err := w.f.Close(); err != nil {
		return 0, err
	}
	w.seq = seq
	f, err := os.OpenFile(walPath(w.dir, w.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND|extraFlag, 0o644)
	if err != nil {
		w.f = nil // unusable; subsequent appends fail loudly
		w.cond.Broadcast()
		return 0, err
	}
	w.f = wrapWALFile(f)
	w.size = 0
	w.notifyLocked()
	return w.seq, nil
}

// Stats returns cumulative record and sync counts.
func (w *wal) Stats() (records, syncs uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records, w.syncs
}

// GroupStats reports group-commit activity: commit rounds completed and
// callers currently blocked in WaitDurable.
func (w *wal) GroupStats() (commits uint64, waiters int64) {
	return w.groupCommits.Load(), w.waiters.Load()
}

// Close drains, syncs, and closes the current segment.
func (w *wal) Close() error {
	if w.stopDrain != nil {
		close(w.stopDrain)
		<-w.drainDone
		w.stopDrain = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.settleLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	w.cond.Broadcast()
	return err
}

// replayWAL streams every intact record of one segment into fn. A torn
// tail (truncated header/body or CRC mismatch) ends the replay without
// error; replay stops with an error only if fn fails. valid is the byte
// length of the intact record prefix, so the caller can truncate the
// garbage tail before appending to the segment again.
func replayWAL(path string, fn func(op byte, key []byte) error) (records int, valid int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return scanRecords(bufio.NewReaderSize(f, 1<<16), fn)
}

// scanRecords streams every intact CRC-framed record from r into fn —
// the core shared by segment replay, replication chunk framing on the
// primary, and shipped-record validation on the replica. It stops
// without error at the first torn or corrupt record; valid is the byte
// length of the intact prefix consumed.
func scanRecords(r io.Reader, fn func(op byte, key []byte) error) (records int, valid int64, err error) {
	var hdr [walRecordHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return records, valid, nil // clean EOF or torn header: end of durable prefix
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > wireMaxWALRecord {
			return records, valid, nil // implausible length: torn/corrupt tail
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return records, valid, nil // torn body
		}
		if crc32.ChecksumIEEE(body) != want {
			return records, valid, nil // corrupt record: stop at last good prefix
		}
		if err := fn(body[0], body[1:]); err != nil {
			return records, valid, err
		}
		records++
		valid += walRecordHeader + int64(n)
	}
}

// wireMaxWALRecord bounds a single replayed record body. Keys arrive over
// the wire inside bounded frames, so anything larger is corruption.
const wireMaxWALRecord = 1 << 21

// listWALSegments returns the sequence numbers of every WAL segment in
// dir, ascending.
func listWALSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%016x.log", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}
