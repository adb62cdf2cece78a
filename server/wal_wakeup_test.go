package server

import (
	"runtime"
	"testing"
	"time"

	"repro/server/wire"
)

// Lost-wakeup probes for WAL group commit. A writer parked in
// WaitDurable must be woken when the round it saw in flight ends. Each
// probe races a writer against another round owner thousands of times;
// a watchdog rescues a writer still parked after wakeupWatchdog by
// committing one more record (its round ends with a broadcast) and
// counts it, and the probe fails if any writer parked.
const wakeupWatchdog = time.Second

// wakeupRounds is 3000 rounds per probe, or 1000 under -short: a
// 200 µs fsync delay sleeps about 1 ms, the runtime's timer resolution
// when every P is idle.
func wakeupRounds() int {
	if testing.Short() {
		return 1000
	}
	return 3000
}

// waitOrRescue waits for done and reports whether its writer had to be
// rescued from a lost wakeup.
func waitOrRescue(t *testing.T, w *wal, done <-chan struct{}) bool {
	t.Helper()
	watchdog := time.NewTimer(wakeupWatchdog)
	defer watchdog.Stop()
	select {
	case <-done:
		return false
	case <-watchdog.C:
	}
	if err := w.WaitDurable(enqueue(t, w, []byte("rescue")), nil); err != nil {
		t.Fatal(err)
	}
	watchdog.Reset(wakeupWatchdog)
	select {
	case <-done:
	case <-watchdog.C:
		t.Fatal("writer still parked after a rescue round")
	}
	return true
}

// waitAsync runs WaitDurable(ticket) on its own goroutine and returns
// the channel closed when it returns.
func waitAsync(t *testing.T, w *wal, ticket uint64) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.WaitDurable(ticket, nil); err != nil {
			t.Error(err)
		}
	}()
	return done
}

// enqueue enqueues one INSERT record and returns its ticket.
func enqueue(t *testing.T, w *wal, key []byte) uint64 {
	t.Helper()
	ticket, err := w.Enqueue(wire.OpInsert, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ticket
}

// TestWALWakeupRacesFlushedPos: each round, one writer's Enqueue +
// WaitDurable races one tailer's FlushedPos, whose no-fsync round
// writes the record without making it durable, so the writer must lead
// or wait for a sync round after it.
func TestWALWakeupRacesFlushedPos(t *testing.T) {
	w, err := openWAL(t.TempDir(), 1, SyncAlways, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	key := []byte("wakeup-flushed")
	parked, rounds := 0, wakeupRounds()
	for i := 0; i < rounds; i++ {
		flushed := make(chan struct{})
		done := waitAsync(t, w, enqueue(t, w, key))
		go func() {
			defer close(flushed)
			if _, _, err := w.FlushedPos(); err != nil {
				t.Error(err)
			}
		}()
		if waitOrRescue(t, w, done) {
			parked++
		}
		<-flushed
	}
	if parked > 0 {
		t.Fatalf("%d of %d writers parked in WaitDurable with no round coming", parked, rounds)
	}
}

// TestWALWakeupDuringSlowFsync: each round, a second writer enqueues
// while the first writer's round sleeps in the fsync-delay failpoint,
// so the second record misses that round and its writer waits on it.
func TestWALWakeupDuringSlowFsync(t *testing.T) {
	fp := WALFailpoints()
	defer fp.Reset()
	w, err := openWAL(t.TempDir(), 1, SyncAlways, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	first, second := []byte("wakeup-first"), []byte("wakeup-second")
	parked, overlapped, rounds := 0, 0, wakeupRounds()
	for i := 0; i < rounds; i++ {
		fp.SetFsyncDelay(200 * time.Microsecond)
		ticket := enqueue(t, w, first)
		firstDone := waitAsync(t, w, ticket)
		// The round is in flight once it has sealed the first record (the
		// pending buffer is empty) and has not yet made it durable.
		for {
			w.mu.Lock()
			sealed, durable := len(w.pending) == 0, w.durTicket >= ticket
			w.mu.Unlock()
			if durable {
				break
			}
			if sealed {
				overlapped++
				break
			}
			runtime.Gosched()
		}
		secondDone := waitAsync(t, w, enqueue(t, w, second))
		fp.SetFsyncDelay(0) // only the first writer's round sleeps
		if waitOrRescue(t, w, firstDone) {
			parked++
		}
		if waitOrRescue(t, w, secondDone) {
			parked++
		}
	}
	if parked > 0 {
		t.Fatalf("%d writers parked in WaitDurable with no round coming (%d of %d second writers arrived during the fsync)", parked, overlapped, rounds)
	}
	if overlapped < rounds/2 {
		t.Fatalf("only %d of %d second writers arrived during the first writer's fsync", overlapped, rounds)
	}
}
