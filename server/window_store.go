package server

import (
	"encoding/binary"
	"errors"
	"time"

	"repro/window"
)

// Windowed mode: when StoreOptions.Window is set, the store's state is a
// window.Filter (a ring of G generation filters) instead of a single
// Sharded MPCBF, and two WAL-only record types join the log so crash
// recovery and replication reconstruct the exact generation ring:
//
//	ROTATE:     body = [0xE0]                — the ring advanced one slot
//	INSERT_TTL: body = [0xE1][u32 r][key]    — key placed r rotations from retirement
//
// The opcodes live outside the wire protocol's space (MaxOp is far
// below 0xE0) because rotation is never a client request — the primary's
// clock drives it — and a TTL insert's durable form is its rotation
// count, not its wall-clock TTL. Logging r instead of a timestamp keeps
// replay deterministic: a replica mirroring the primary's WAL bytes, or
// a recovery replaying them hours later, lands every key in the same
// ring slot the primary chose. For the same reason the serving layer
// does not use the window package's precise mode — per-key wall-clock
// deletes cannot be replayed deterministically; TTL granularity here is
// the rotation period.
//
// Rotation ordering: mutations and rotations both run under the store
// mutation lock, apply-then-log, so WAL order equals apply order and the
// ring position at any WAL byte is exact. Replicas never run a rotation
// clock of their own — rotations arrive as mirrored ROTATE records.
const (
	walOpWindowRotate = 0xE0
	walOpInsertTTL    = 0xE1
)

// decodeTTLBody splits a TTL record's key field back into its rotation
// count and key: [u32 r][key bytes] (the wal's EnqueueTTL* framing).
func decodeTTLBody(b []byte) (r int, key []byte, err error) {
	if len(b) < 4 {
		return 0, nil, errors.New("server: truncated ttl wal record")
	}
	return int(binary.LittleEndian.Uint32(b[:4])), b[4:], nil
}

// w returns the window filter, nil when the store is not windowed; safe
// without the mutation lock.
func (s *Store) w() *window.Filter { return s.win.Load() }

// Windowed reports whether the store runs in sliding-window mode.
func (s *Store) Windowed() bool { return s.w() != nil }

// Window exposes the window filter for read-only inspection (nil when
// not windowed).
func (s *Store) Window() *window.Filter { return s.w() }

// RotationHist returns the rotation-latency histogram (time holding the
// mutation lock per ring rotation, including the WAL append).
func (s *Store) RotationHist() HistSnapshot { return s.rotHist.Snapshot() }

var errNotWindowed = errors.New("server: not a windowed store (start mpcbfd with -window)")

// InsertTTL inserts key with a per-key lifetime: the key expires no
// earlier than ttl from now and no later than the window span, at
// rotation granularity. Windowed stores only.
func (s *Store) InsertTTL(key []byte, ttl time.Duration) error {
	return s.insertTTL(key, ttl, nil)
}

func (s *Store) insertTTL(key []byte, ttl time.Duration, tr *reqTrace) error {
	ticket, err := s.insertTTLEnq(key, ttl, tr)
	if err != nil {
		return err
	}
	return s.wal.WaitDurable(ticket, tr)
}

func (s *Store) insertTTLEnq(key []byte, ttl time.Duration, tr *reqTrace) (uint64, error) {
	w := s.w()
	if w == nil {
		return 0, errNotWindowed
	}
	r := w.Generations()
	if ttl >= 0 { // negative = overflowed u64 nanos: treat as full span
		r = w.RotationsFor(ttl)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := tr.now()
	if err := w.InsertRotations(key, r); err != nil {
		return 0, err
	}
	tr.addFilter(t0)
	if err := s.selectLocked(nil); err != nil {
		return 0, err
	}
	return s.wal.EnqueueTTL(walOpInsertTTL, uint32(r), key, tr)
}

// InsertTTLBatch inserts a batch of keys sharing one TTL, with a single
// fsync. Windowed stores only.
func (s *Store) InsertTTLBatch(keys [][]byte, ttl time.Duration) error {
	return s.insertTTLBatch(keys, ttl, nil)
}

func (s *Store) insertTTLBatch(keys [][]byte, ttl time.Duration, tr *reqTrace) error {
	ticket, err := s.insertTTLBatchEnq(keys, ttl, tr)
	if err != nil {
		return err
	}
	return s.wal.WaitDurable(ticket, tr)
}

func (s *Store) insertTTLBatchEnq(keys [][]byte, ttl time.Duration, tr *reqTrace) (uint64, error) {
	w := s.w()
	if w == nil {
		return 0, errNotWindowed
	}
	r := w.Generations()
	if ttl >= 0 {
		r = w.RotationsFor(ttl)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := tr.now()
	if err := w.InsertRotationsBatch(keys, r); err != nil {
		return 0, err
	}
	tr.addFilter(t0)
	if err := s.selectLocked(nil); err != nil {
		return 0, err
	}
	return s.wal.EnqueueTTLBatch(walOpInsertTTL, uint32(r), keys, tr)
}

// WindowStats reports the generation ring's shape and occupancy.
// Windowed stores only.
func (s *Store) WindowStats() (window.Stats, error) {
	w := s.w()
	if w == nil {
		return window.Stats{}, errNotWindowed
	}
	return w.Stats(), nil
}

// rotate advances the generation ring one slot and logs the rotation, so
// recovery and replicas advance their rings at the same WAL position.
func (s *Store) rotate() error {
	w := s.w()
	if w == nil {
		return errNotWindowed
	}
	t0 := time.Now()
	s.mu.Lock()
	w.Rotate()
	err := s.selectLocked(nil)
	if err == nil {
		err = s.wal.Append(walOpWindowRotate, nil, nil)
	}
	s.mu.Unlock()
	s.rotHist.ObserveDuration(time.Since(t0))
	return err
}

// rotateLoop drives the window clock on a primary. The period restarts
// at process boot (the time since the last pre-crash rotation is not
// persisted), which can stretch one key's lifetime by at most one
// rotation period — the same staleness bound the window already carries.
func (s *Store) rotateLoop(every time.Duration) {
	defer s.bg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.rotate(); err != nil {
				s.opts.Log.Error("window rotation failed", "error", err)
			}
		case <-s.stop:
			return
		}
	}
}

// marshalLocked encodes the store's state — windowed or not — for
// snapshots, DUMP, and replication bootstrap. With namespaces present
// the encoding is the self-contained container of ns_store.go; without
// them it stays the bare filter encoding old tooling understands.
// Caller holds s.mu.
func (s *Store) marshalLocked() ([]byte, error) {
	base, err := s.marshalBaseLocked()
	if err != nil || s.reg == nil || s.reg.Len() == 0 {
		return base, err
	}
	return s.encodeNsContainerLocked(base)
}

// marshalBaseLocked encodes only the default (anonymous) state.
func (s *Store) marshalBaseLocked() ([]byte, error) {
	if w := s.w(); w != nil {
		return w.MarshalBinary()
	}
	if el := s.elf(); el != nil {
		return el.MarshalBinary()
	}
	return s.f().MarshalBinary()
}

func windowOptionsFrom(opts StoreOptions) window.Options {
	return window.Options{
		Span:        opts.Window,
		Generations: opts.Generations,
		Filter:      opts.Filter,
		Shards:      opts.Shards,
		Workers:     opts.BatchWorkers,
	}
}
