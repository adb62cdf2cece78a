package server

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/server/wire"
)

// testWindowStoreOptions uses a span long enough that the background
// rotation clock never fires inside a test; rotations are driven
// explicitly through s.rotate so each test controls the clock.
func testWindowStoreOptions(dir string) StoreOptions {
	o := testStoreOptions(dir)
	o.Window = time.Hour
	o.Generations = 4
	return o
}

// rotateForTest advances the generation ring of the named namespace (""
// = the default window) through the store's logged rotation path.
func rotateForTest(t *testing.T, s *Store, name string) {
	t.Helper()
	if err := s.rotate(s.reg.Lookup([]byte(name))); err != nil {
		t.Fatal(err)
	}
}

func TestWindowStoreBasics(t *testing.T) {
	s, err := OpenStore(testWindowStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Windowed() {
		t.Fatal("store with Window set is not windowed")
	}
	if s.Filter() != nil {
		t.Fatal("windowed store leaked a non-nil Sharded filter")
	}
	if err := s.Insert([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertTTL([]byte("b"), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertTTLBatch(storeKeys("tb", 10), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if !s.Contains([]byte("a")) || !s.Contains([]byte("b")) {
		t.Fatal("false negative on fresh windowed store")
	}
	if got := s.Len(); got != 12 {
		t.Fatalf("Len = %d, want 12", got)
	}
	st, err := s.WindowStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Generations != 4 || st.Span != time.Hour {
		t.Fatalf("WindowStats = %+v", st)
	}
}

func TestPlainStoreRejectsWindowOps(t *testing.T) {
	s, err := OpenStore(testStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.InsertTTL([]byte("x"), time.Minute); err == nil {
		t.Fatal("InsertTTL on a plain store did not error")
	}
	if err := s.InsertTTLBatch(storeKeys("x", 3), time.Minute); err == nil {
		t.Fatal("InsertTTLBatch on a plain store did not error")
	}
	if _, err := s.WindowStats(); err == nil {
		t.Fatal("WindowStats on a plain store did not error")
	}
}

// TestWindowStoreRecoveryFromWALOnly drives a mixed history of plain
// inserts, TTL inserts, and rotations, crashes without a snapshot, and
// checks recovery reconstructs the exact generation ring: same head,
// same rotation count, and keys expire on exactly the same future
// rotation as they would have pre-crash.
func TestWindowStoreRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testWindowStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	// full-span key: survives G-1=3 more rotations, gone after 4.
	if err := s.Insert([]byte("long")); err != nil {
		t.Fatal(err)
	}
	// rotate-every is span/G = 15m, so a 10m TTL needs 2 rotations
	// (RotationsFor rounds up and adds one so lifetime is always >= ttl).
	if err := s.InsertTTL([]byte("short"), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch(storeKeys("batch", 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.rotate(s.reg.Default()); err != nil {
		t.Fatal(err)
	}
	// Inserted after one rotation: lives in a younger generation.
	if err := s.InsertTTLBatch(storeKeys("young", 20), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.rotate(s.reg.Default()); err != nil {
		t.Fatal(err)
	}
	// Two rotations in: "short" (2 rotations-to-live) just expired.
	if s.Contains([]byte("short")) {
		t.Fatal("short-TTL key survived its rotation budget pre-crash")
	}
	if !s.Contains([]byte("long")) {
		t.Fatal("full-span key expired early pre-crash")
	}
	pre, err := s.WindowStats()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.wal.Close(); err != nil { // crash: no final snapshot
		t.Fatal(err)
	}

	r, err := OpenStore(testWindowStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	post, err := r.WindowStats()
	if err != nil {
		t.Fatal(err)
	}
	if post.Head != pre.Head || post.Rotations != pre.Rotations {
		t.Fatalf("ring mismatch after recovery: pre head=%d rot=%d, post head=%d rot=%d",
			pre.Head, pre.Rotations, post.Head, post.Rotations)
	}
	for i := range pre.GenItems {
		if pre.GenItems[i] != post.GenItems[i] {
			t.Fatalf("generation %d items: pre %d, post %d", i, pre.GenItems[i], post.GenItems[i])
		}
	}
	if r.Contains([]byte("short")) {
		t.Fatal("expired key resurrected by recovery")
	}
	if !r.Contains([]byte("long")) {
		t.Fatal("false negative on full-span key after recovery")
	}
	for _, k := range storeKeys("young", 20) {
		if !r.Contains(k) {
			t.Fatalf("false negative on young key %q after recovery", k)
		}
	}
	// The ring must keep retiring on the same schedule: "long" and the
	// first batch sit 2 rotations from expiry, "young" needs only 1
	// more ("young" was inserted with 2 rotations-to-live, one already
	// spent).
	if err := r.rotate(r.reg.Default()); err != nil {
		t.Fatal(err)
	}
	if r.Contains([]byte("young-0")) {
		t.Fatal("young TTL key survived past its rotation budget after recovery")
	}
	if !r.Contains([]byte("long")) {
		t.Fatal("full-span key expired one rotation early after recovery")
	}
	if err := r.rotate(r.reg.Default()); err != nil {
		t.Fatal(err)
	}
	if err := r.rotate(r.reg.Default()); err != nil {
		t.Fatal(err)
	}
	if r.Contains([]byte("long")) || r.Contains([]byte("batch-0")) {
		t.Fatal("full-span keys survived a full window of rotations")
	}
}

// TestWindowStoreRecoveryFromSnapshotPlusTail checks the windowed
// snapshot format round-trips through the snapshot/recover path with a
// WAL tail of TTL inserts and rotations on top.
func TestWindowStoreRecoveryFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testWindowStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch(storeKeys("base", 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.rotate(s.reg.Default()); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Tail: TTL inserts and one more rotation, replayed from the WAL.
	if err := s.InsertTTLBatch(storeKeys("tail", 30), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.rotate(s.reg.Default()); err != nil {
		t.Fatal(err)
	}
	pre, err := s.WindowStats()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(testWindowStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// 30 TTL inserts + 1 rotation replay on top of the snapshot.
	if got := r.Stats().ReplayedRecords; got != 31 {
		t.Fatalf("replayed %d records, want 31", got)
	}
	post, err := r.WindowStats()
	if err != nil {
		t.Fatal(err)
	}
	if post.Head != pre.Head || post.Rotations != pre.Rotations {
		t.Fatalf("ring mismatch: pre head=%d rot=%d, post head=%d rot=%d",
			pre.Head, pre.Rotations, post.Head, post.Rotations)
	}
	for _, k := range storeKeys("base", 100) {
		if !r.Contains(k) {
			t.Fatalf("false negative on %q after snapshot+tail recovery", k)
		}
	}
	for _, k := range storeKeys("tail", 30) {
		if !r.Contains(k) {
			t.Fatalf("false negative on %q after snapshot+tail recovery", k)
		}
	}
}

// TestWindowStoreModeMismatch: flipping -window on an existing primary
// data directory of the other mode must fail loudly, not silently
// reinterpret the state.
func TestWindowStoreModeMismatch(t *testing.T) {
	t.Run("plain dir, windowed flags", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenStore(testStoreOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Insert([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(testWindowStoreOptions(dir)); err == nil {
			t.Fatal("opening a plain store with -window did not error")
		} else if !strings.Contains(err.Error(), "not windowed") {
			t.Fatalf("unhelpful mode-mismatch error: %v", err)
		}
	})
	t.Run("windowed dir, plain flags", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenStore(testWindowStoreOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Insert([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(testStoreOptions(dir)); err == nil {
			t.Fatal("opening a windowed store without -window did not error")
		} else if !strings.Contains(err.Error(), "windowed") {
			t.Fatalf("unhelpful mode-mismatch error: %v", err)
		}
	})
}

// TestWindowStoreDelete exercises counting deletes against the ring
// through the store path (delete must land in the generation that holds
// the key).
func TestWindowStoreDelete(t *testing.T) {
	s, err := OpenStore(testWindowStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Insert([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.rotate(s.reg.Default()); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([]byte("old")); err != nil {
		t.Fatal(err)
	}
	if s.Contains([]byte("old")) {
		t.Fatal("deleted key still present")
	}
	if !s.Contains([]byte("new")) {
		t.Fatal("delete removed the wrong generation's key")
	}
	flags, err := s.DeleteBatch([][]byte{[]byte("new"), []byte("absent")})
	if err != nil {
		t.Fatal(err)
	}
	if !flags[0] || flags[1] {
		t.Fatalf("DeleteBatch flags = %v, want [true false]", flags)
	}
}

// TestWindowStoreReplicaAdoptsSnapshotMode: a replica whose local
// snapshot is windowed opens in windowed mode even without the flags —
// the shipped state, not the command line, decides.
func TestWindowStoreReplicaAdoptsSnapshotMode(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testWindowStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch(storeKeys("rep", 40)); err != nil {
		t.Fatal(err)
	}
	if err := s.rotate(s.reg.Default()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // clean close writes a snapshot
		t.Fatal(err)
	}

	ro := testStoreOptions(dir) // note: no Window set
	ro.Replica = true
	r, err := OpenStore(ro)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Windowed() {
		t.Fatal("replica did not adopt the windowed snapshot mode")
	}
	for _, k := range storeKeys("rep", 40) {
		if !r.Contains(k) {
			t.Fatalf("false negative on %q after replica open", k)
		}
	}
	st, err := r.WindowStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rotations != 1 {
		t.Fatalf("replica rotations = %d, want 1", st.Rotations)
	}
}

// TestRotationDoesNotBlockWriters runs a default-window rotation under a
// 200 ms fsync delay and requires a writer to take the mutation lock
// within 50 ms: a rotation holds s.mu only to apply and enqueue, and
// waits out its commit after releasing it.
func TestRotationDoesNotBlockWriters(t *testing.T) {
	fp := WALFailpoints()
	s, err := OpenStore(testWindowStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer fp.Reset()
	fp.SetFsyncDelay(200 * time.Millisecond)

	done := make(chan error, 1)
	go func() { done <- s.rotate(s.reg.Default()) }()
	for deadline := time.Now().Add(5 * time.Second); s.Window().Rotations() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("rotation never applied")
		}
		time.Sleep(100 * time.Microsecond)
	}
	t0 := time.Now()
	s.mu.Lock()
	waited := time.Since(t0)
	s.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if waited > 50*time.Millisecond {
		t.Fatalf("writer waited %v for the mutation lock during a rotation's fsync, want < 50ms", waited)
	}
}

// TestWindowStatsLockFree requires WINDOW_STATS of a resident window to
// answer while the mutation lock is held (by a writer or a snapshot
// marshal), for the default window and for a windowed namespace.
func TestWindowStatsLockFree(t *testing.T) {
	s, err := OpenStore(testWindowStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.nsCreateEnq([]byte("w"), wire.NsConfig{WindowNanos: uint64(time.Hour)}, nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "w"} {
		done := make(chan error, 1)
		s.mu.Lock()
		go func() {
			_, err := s.windowStats([]byte(name))
			done <- err
		}()
		var blocked bool
		select {
		case err = <-done:
		case <-time.After(2 * time.Second):
			blocked = true
		}
		s.mu.Unlock()
		if blocked {
			t.Fatalf("WINDOW_STATS %q waited for the mutation lock", name)
		}
		if err != nil {
			t.Fatalf("WINDOW_STATS %q: %v", name, err)
		}
	}
}

// TestWindowStatsNamesRefusedNamespace: WINDOW_STATS of a named
// namespace that is not a window, resident or evicted, refuses it by
// name, as INSERT_TTL does, on a windowed daemon too, instead of
// blaming a daemon flag; the default filter of a plain store keeps
// errNotWindowed.
func TestWindowStatsNamesRefusedNamespace(t *testing.T) {
	s, err := OpenStore(testWindowStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for name, cfg := range map[string]wire.NsConfig{"p": {}, "el": {Flags: wire.NsFlagElastic}} {
		if _, err := s.nsCreateEnq([]byte(name), cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	err = s.reg.Evict(s.reg.Lookup([]byte("el")))
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"p", "el"} {
		_, err := s.windowStats([]byte(name))
		if want := `server: namespace "` + name + `" is not windowed`; err == nil || err.Error() != want {
			t.Errorf("WINDOW_STATS %q: %v, want %s", name, err, want)
		}
	}

	plain, err := OpenStore(testStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.WindowStats(); !errors.Is(err, errNotWindowed) {
		t.Fatalf("WINDOW_STATS of a plain default filter: %v, want %v", err, errNotWindowed)
	}
}

// TestRotationKeepsCadence pins the rotation schedule: a late rotation
// sets the next deadline one period after the one it served, not after
// now, and a ring more than a period behind restarts from now.
func TestRotationKeepsCadence(t *testing.T) {
	const every = int64(time.Minute)
	for _, c := range []struct {
		name            string
		prev, now, want int64
	}{
		{"late", 0, every / 2, every},
		{"a period behind", 0, every, 2 * every},
		{"three periods behind", 0, 3 * every, 4 * every},
	} {
		if got := nextRotation(c.prev, c.now, every); got != c.want {
			t.Errorf("%s: next deadline %v, want %v", c.name, time.Duration(got), time.Duration(c.want))
		}
	}

	// A rotation schedules through it. The deadline stays ahead of the
	// clock, so the store's own rotation loop keeps sleeping meanwhile.
	s, err := OpenStore(testWindowStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	e := s.reg.Default()
	due := e.NextRotate()
	rotateForTest(t, s, "")
	if got, want := e.NextRotate(), due+int64(s.Window().RotateEvery()); got != want {
		t.Fatalf("rotation rescheduled to due%+v, want due+%v", time.Duration(got-due), s.Window().RotateEvery())
	}
}
