package server

import (
	"errors"
	"fmt"
	"time"

	"repro/server/ns"
	"repro/window"
)

// Windowed mode: when StoreOptions.Window is set, the default filter is
// a window.Filter (a ring of G generation filters) instead of a single
// Sharded MPCBF — and a namespace created with a window is one too. Its
// WAL records, ROTATE and INSERT_TTL, are rows of walRecords.
//
// Rotation ordering: mutations and rotations both apply and enqueue
// under the store mutation lock, so WAL order equals apply order and the
// ring position at any WAL byte is exact. Replicas never run a rotation
// clock of their own — rotations arrive as mirrored ROTATE records.

// Window exposes the default window filter for read-only inspection
// (nil when the default filter is not windowed).
func (s *Store) Window() *window.Filter { return s.reg.Default().Window() }

// Windowed reports whether the default filter is a sliding window.
func (s *Store) Windowed() bool { return s.Window() != nil }

// RotationHist returns the rotation-latency histogram: per ring
// rotation, from taking the mutation lock to the durable commit of its
// WAL record.
func (s *Store) RotationHist() HistSnapshot { return s.rotHist.Snapshot() }

var errNotWindowed = errors.New("server: not a windowed store (start mpcbfd with -window)")

// notWindowed is the error for a window-only op on name's filter when it
// is not a window.
func notWindowed(name []byte) error {
	if len(name) == 0 {
		return errNotWindowed
	}
	return fmt.Errorf("server: namespace %q is not windowed", name)
}

// windowStats reports the generation ring of name's window
// (WINDOW_STATS). It reads like every other read (readAs).
func (s *Store) windowStats(name []byte) (window.Stats, error) {
	return readAs(s, name, notWindowed, (*window.Filter).Stats)
}

// WindowStats reports the default window's shape and occupancy.
// Windowed stores only.
func (s *Store) WindowStats() (window.Stats, error) { return s.windowStats(nil) }

// rotate advances e's generation ring one slot and logs ROTATE, so
// recovery and replicas advance the same ring at the same WAL
// position. Only the apply and the enqueue hold s.mu: the commit is
// waited out after releasing it, so a slow fsync never stalls writers.
// An entry evicted or dropped since its deadline was read is skipped (a
// recovered one reschedules itself).
func (s *Store) rotate(e *ns.Entry) error {
	t0 := time.Now()
	s.mu.Lock()
	w := e.Window()
	if w == nil || s.reg.Lookup([]byte(e.Name())) != e {
		s.mu.Unlock()
		return nil
	}
	w.Rotate()
	ticket, err := s.logOneLocked(e, walOpWindowRotate, nil, nil)
	e.SetNextRotate(nextRotation(e.NextRotate(), time.Now().UnixNano(), int64(w.RotateEvery())))
	s.mu.Unlock()
	if err == nil {
		err = s.wal.WaitDurable(ticket, nil)
	}
	s.rotHist.ObserveDuration(time.Since(t0))
	return err
}

// replayRotate replays a ROTATE record (recovery and replication).
func (s *Store) replayRotate(e *ns.Entry, _ []byte) error {
	e.Window().Rotate()
	return nil
}

// nextRotation returns the deadline that follows one served at prev
// (UnixNano): one period after prev, not after now, so a rotation
// delayed by a wait for s.mu does not shift every later one. A ring that
// fell more than a period behind restarts from now.
func nextRotation(prev, now, every int64) int64 {
	if next := prev + every; next > now {
		return next
	}
	return now + every
}

// rotateLoop drives the window clock on a primary — the default
// window's and every windowed namespace's — sleeping until the earliest
// due rotation and re-evaluating whenever a windowed namespace is
// created or recovered. Deadlines restart at process boot (the time
// since the last pre-crash rotation is not persisted), which can stretch
// one key's lifetime by at most one rotation period — the same
// staleness bound the window already carries.
func (s *Store) rotateLoop() {
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
		if err := s.rotate(e); err != nil {
			s.opts.Log.Error("window rotation failed", "ns", e.Name(), "error", err)
		}
	}
}
