package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/snapio"
)

// This file is the Store's replication surface.
//
// Primary side: the WAL position/notification accessors feed the
// per-subscriber streamers in replication.go, and ReplicationSnapshot
// produces the bootstrap payload for a subscriber whose position is
// unavailable.
//
// Replica side: ReplicaApply and ReplicaBootstrap make a replica-mode
// Store a byte-for-byte mirror of the primary's durable state. Shipped
// frames carry the exact bytes of the primary's segment files, so the
// replica appends them verbatim (after CRC validation) to identically
// numbered local segments and applies the records through the same batch
// apply path recovery uses. The position of the mirror IS the durability
// cursor: after a replica crash, recovery replays the local segments and
// the surviving valid prefix — (live segment, valid byte length) — is
// precisely the position to resume the subscription from. No separate
// applied-offset file can ever disagree with the data it describes.

// ReplicationPos returns the WAL position the store's durable state
// corresponds to: the live segment and its logical size. A replica
// resumes its subscription from here.
func (s *Store) ReplicationPos() (seq uint64, off int64) {
	return s.wal.Pos()
}

// WALFlushedPos flushes the WAL's write buffer (no fsync) and returns
// the live segment and its readable byte length. Streamers call this
// before reading segment files so every logical byte is visible.
func (s *Store) WALFlushedPos() (seq uint64, off int64, err error) {
	return s.wal.FlushedPos()
}

// WALChanged returns a channel closed at the next WAL append or
// rotation; take the channel, re-check the position, then wait.
func (s *Store) WALChanged() <-chan struct{} { return s.wal.Changed() }

// WALCum returns the WAL's cumulative record and byte counters, shipped
// on replication frames for lag accounting.
func (s *Store) WALCum() (records, bytes uint64) { return s.wal.CumPos() }

// WALSegmentStats reports the number of WAL segment files on disk and
// their total size.
func (s *Store) WALSegmentStats() (count int, totalBytes int64) {
	segs, err := listWALSegments(s.opts.Dir)
	if err != nil {
		return 0, 0
	}
	for _, seq := range segs {
		if fi, err := os.Stat(walPath(s.opts.Dir, seq)); err == nil {
			totalBytes += fi.Size()
		}
	}
	return len(segs), totalBytes
}

// OldestSegment returns the lowest WAL segment sequence still on disk
// (0 when none): the horizon below which a subscriber must bootstrap.
func (s *Store) OldestSegment() uint64 {
	segs, err := listWALSegments(s.opts.Dir)
	if err != nil || len(segs) == 0 {
		return 0
	}
	return segs[0]
}

// ReplicationSnapshot produces a bootstrap payload for a subscriber: a
// full snapshot is taken (rotating the WAL), and its payload, read back
// from the verified file, is returned together with the fresh segment
// the stream continues from and the cumulative counters at that point.
// Rotation makes the snapshot state correspond exactly to (seq, 0), so
// the subscriber can mirror segment seq from its first byte.
func (s *Store) ReplicationSnapshot() (data []byte, seq uint64, cumRecords, cumBytes uint64, err error) {
	if s.opts.Replica {
		return nil, 0, 0, 0, errors.New("server: replica store cannot source a replication snapshot")
	}
	if seq, cumRecords, cumBytes, err = s.snapshot(); err != nil {
		return nil, 0, 0, 0, err
	}
	if data, err = readSnapBytes(snapshotPath(s.opts.Dir, seq)); err != nil {
		return nil, 0, 0, 0, fmt.Errorf("server: snapshot read back: %w", err)
	}
	return data, seq, cumRecords, cumBytes, nil
}

// ReplicaApply validates a shipped frame of raw WAL records against the
// mirror position, applies the records to the filter in WAL order, and
// appends the bytes verbatim to the local segment file under the
// configured fsync policy. A frame for segment seq at offset 0 with the
// mirror sitting at the end of an earlier segment is the primary's
// rotation, mirrored locally. Any other position mismatch is a stream
// desync and poisons nothing: the caller reconnects and the primary
// re-decides from the replica's durable position.
func (s *Store) ReplicaApply(seq uint64, off int64, n uint32, raw []byte) error {
	if !s.opts.Replica {
		return errors.New("server: ReplicaApply on a non-replica store")
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	wseq, wsize := s.wal.Pos()
	if seq != wseq {
		if seq > wseq && off == 0 {
			if err := s.wal.RotateTo(seq); err != nil {
				return err
			}
			// Mirror the primary's per-segment selection reset: the new
			// segment opens in the default context on both sides.
			s.walCtx = s.reg.Default()
			wsize = 0
		} else {
			return fmt.Errorf("server: replica desync: frame (%d, %d), mirror (%d, %d)", seq, off, wseq, wsize)
		}
	}
	if off != wsize {
		return fmt.Errorf("server: replica desync: frame (%d, %d), mirror (%d, %d)", seq, off, wseq, wsize)
	}

	// Validate every record before applying any: a truncated or corrupt
	// frame must not half-apply.
	t0 := time.Now()
	a := &batchApplier{s: s, context: "replicate"}
	count, valid, err := scanRecords(bytes.NewReader(raw), a.add)
	if err != nil {
		return fmt.Errorf("server: replica frame: %w", err)
	}
	if valid != int64(len(raw)) || count != int(n) {
		return fmt.Errorf("server: replica frame corrupt: %d/%d bytes valid, %d/%d records", valid, len(raw), count, n)
	}
	a.flush()
	if err := s.wait(s.wal.EnqueueRaw(raw, count)); err != nil {
		return err
	}
	if s.onApply != nil {
		s.onApply(seq, off, len(raw), count, time.Since(t0))
	}
	return nil
}

// ReplicaBootstrap resets the mirror to a primary-supplied snapshot: the
// local history (segments and snapshots, whatever it diverged to) is
// wiped, the snapshot is persisted as snapshot-<seq>.snap so a restart
// recovers locally, and an empty segment seq becomes the live mirror
// target. The in-memory filter is swapped atomically under the mutation
// lock; concurrent reads see either the old or the new state, never a
// mixture.
func (s *Store) ReplicaBootstrap(seq uint64, cumRecords, cumBytes uint64, data []byte) error {
	if !s.opts.Replica {
		return errors.New("server: ReplicaBootstrap on a non-replica store")
	}
	// The mirror adopts whatever state the primary ships — windowed or
	// not, bare or namespace container — through the same decoder
	// OpenStore loads a local snapshot with.
	n := int64(len(data))
	snap, err := decodeSnapPayload(snapio.NewReader(bytes.NewReader(data), n), n, s.stageEvicted)
	if err != nil {
		return fmt.Errorf("server: bootstrap snapshot: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	if err := s.wal.Close(); err != nil {
		snap.discard()
		return fmt.Errorf("server: bootstrap wal close: %w", err)
	}
	// Wipe segments first, snapshots second, then persist the new
	// snapshot: every crash window leaves a directory that either
	// recovers to an older consistent state (and re-bootstraps on
	// reconnect) or is empty (fresh start, bootstraps again). A stale
	// segment numbered at or above the new snapshot would replay on top
	// of it, so removal precedes the write.
	if segs, err := listWALSegments(s.opts.Dir); err == nil {
		for _, old := range segs {
			if err := os.Remove(walPath(s.opts.Dir, old)); err != nil {
				s.opts.Log.Warn("bootstrap: remove wal segment", "seq", old, "error", err)
			}
		}
	}
	if snaps, err := listSnapshots(s.opts.Dir); err == nil {
		for _, old := range snaps {
			if err := os.Remove(snapshotPath(s.opts.Dir, old)); err != nil {
				s.opts.Log.Warn("bootstrap: remove snapshot", "seq", old, "error", err)
			}
		}
	}
	// Local evict files describe the divergent history being wiped; the
	// staged ones from the shipped container replace them below, so tail
	// replay starts from the container's exact bytes.
	for _, path := range listNsSnapFiles(s.opts.Dir) {
		if err := os.Remove(path); err != nil {
			s.opts.Log.Warn("bootstrap: remove ns evict file", "path", path, "error", err)
		}
	}

	if err := publishSnapFile(snapshotPath(s.opts.Dir, seq), writeBytes(data)); err != nil {
		snap.discard()
		return fmt.Errorf("server: bootstrap snapshot write: %w", err)
	}

	nw, err := openWAL(s.opts.Dir, seq, s.opts.Sync, -1)
	if err != nil {
		snap.discard()
		return fmt.Errorf("server: bootstrap wal open: %w", err)
	}
	nw.setBaseline(cumRecords, cumBytes)
	s.wal = nw
	s.walCtx = s.reg.Default()
	s.reg.Reset()
	if err := s.installNamespaces(&snap); err != nil {
		return fmt.Errorf("server: bootstrap: %w", err)
	}
	if err := s.reg.EnsureQuota(nil); err != nil {
		return fmt.Errorf("server: bootstrap namespace quota: %w", err)
	}
	s.reg.Default().Replace(snap.base)
	s.snapshots.Add(1)
	s.lastSnapshot.Store(time.Now().UnixNano())
	return nil
}
