package server

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	mpcbf "repro"
)

// discardLog silences store/server logging in tests. (slog.DiscardHandler
// is go1.24; this repo targets go1.22.)
func discardLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testStoreOptions(dir string) StoreOptions {
	return StoreOptions{
		Dir:    dir,
		Filter: mpcbf.Options{MemoryBits: 1 << 19, ExpectedItems: 5000, Seed: 42},
		Shards: 4,
		Sync:   SyncAlways,
		Log:    discardLog(),
	}
}

// listSnapshots returns the published snapshots scanDir finds in dir,
// ascending.
func listSnapshots(dir string) ([]uint64, error) {
	files, err := scanDir(dir)
	return files.snapshots, err
}

func storeKeys(prefix string, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%s-%d", prefix, i))
	}
	return keys
}

func TestStoreRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	keys := storeKeys("wal", 500)
	for _, k := range keys[:100] {
		if err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.InsertBatch(keys[100:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: close the WAL file without snapshotting.
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 499 {
		t.Fatalf("recovered Len = %d, want 499", r.Len())
	}
	if got := r.Stats().ReplayedRecords; got != 501 {
		t.Fatalf("replayed %d records, want 501", got)
	}
	for _, k := range keys[1:] {
		if !r.Contains(k) {
			t.Fatalf("false negative after WAL recovery: %q", k)
		}
	}
}

func TestStoreRecoveryFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	keys := storeKeys("snap", 600)
	if err := s.InsertBatch(keys[:400]); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Tail mutations after the snapshot live only in the fresh segment.
	if err := s.InsertBatch(keys[400:]); err != nil {
		t.Fatal(err)
	}
	ok, err := s.DeleteBatch(keys[:50])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ok {
		if !v {
			t.Fatalf("delete %d failed", i)
		}
	}
	if err := s.wal.Close(); err != nil { // crash without final snapshot
		t.Fatal(err)
	}

	r, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 550 {
		t.Fatalf("recovered Len = %d, want 550", r.Len())
	}
	// Only the tail (200 inserts + 50 deletes) should need replaying.
	if got := r.Stats().ReplayedRecords; got != 250 {
		t.Fatalf("replayed %d records, want 250", got)
	}
	for _, k := range keys[50:] {
		if !r.Contains(k) {
			t.Fatalf("false negative after snapshot+tail recovery: %q", k)
		}
	}
}

func TestStoreSnapshotRetainsOnePredecessor(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch(storeKeys("trunc", 300)); err != nil {
		t.Fatal(err)
	}
	// The first snapshot has no predecessor, so only the live segment
	// survives it; each later snapshot keeps exactly one older generation
	// (snapshot + covering segments) as a corruption fallback.
	for i, want := range []int{1, 2, 2} {
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		files, err := scanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		snaps, segs := files.snapshots, files.segments
		if len(snaps) != want {
			t.Fatalf("after snapshot %d: snapshots = %v, want %d", i+1, snaps, want)
		}
		if len(segs) != want {
			t.Fatalf("after snapshot %d: segments = %v, want %d", i+1, segs, want)
		}
		if snaps[0] != segs[0] || snaps[len(snaps)-1] != segs[len(segs)-1] {
			t.Fatalf("after snapshot %d: snapshots %v misaligned with segments %v", i+1, snaps, segs)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	keys := storeKeys("fallback", 200)
	if err := s.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil { // predecessor generation
		t.Fatal(err)
	}
	extra := storeKeys("tail", 50)
	if err := s.InsertBatch(extra); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // newest generation via final snapshot
		t.Fatal(err)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %v, want newest + one retained predecessor", snaps)
	}
	// Corrupt the newest snapshot: recovery must fall back to the retained
	// predecessor and replay the segments between the two generations —
	// full state, zero loss.
	corruptFile(t, snapshotPath(dir, snaps[1]))
	r, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 250 {
		t.Fatalf("recovered Len = %d, want 250", r.Len())
	}
	for _, k := range append(append([][]byte(nil), keys...), extra...) {
		if !r.Contains(k) {
			t.Fatalf("false negative on %q after snapshot fallback", k)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreAllSnapshotsCorruptFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch(storeKeys("doomed", 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshots = %v, %v", snaps, err)
	}
	for _, seq := range snaps {
		corruptFile(t, snapshotPath(dir, seq))
	}
	// Silently coming up empty would masquerade as data loss; the store
	// must refuse to open instead.
	if _, err := OpenStore(testStoreOptions(dir)); err == nil {
		t.Fatal("OpenStore succeeded with every snapshot corrupt")
	}
}

func TestStoreTornTailSurvivesDoubleCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	first := storeKeys("crash1", 100)
	if err := s.InsertBatch(first); err != nil {
		t.Fatal(err)
	}
	if err := s.wal.Close(); err != nil { // crash #1...
		t.Fatal(err)
	}
	files, err := scanDir(dir)
	segs := files.segments
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	// ...mid-append: garbage bytes after the last intact record.
	live := walPath(dir, segs[len(segs)-1])
	f, err := os.OpenFile(live, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: replay drops the torn tail and recovery truncates it, so
	// mutations acked after the restart land where the next replay sees
	// them.
	s2, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 100 {
		t.Fatalf("first recovery Len = %d, want 100", s2.Len())
	}
	second := storeKeys("crash2", 100)
	if err := s2.InsertBatch(second); err != nil {
		t.Fatal(err)
	}
	if err := s2.wal.Close(); err != nil { // crash #2
		t.Fatal(err)
	}

	r, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 200 {
		t.Fatalf("second recovery Len = %d, want 200 (acked records written after restart lost behind torn tail?)", r.Len())
	}
	for _, k := range append(append([][]byte(nil), first...), second...) {
		if !r.Contains(k) {
			t.Fatalf("false negative on acked key %q after double crash", k)
		}
	}
}

func TestStoreDeleteBatchLogsOnlySuccesses(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	keys := storeKeys("dbl", 100)
	if err := s.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	mixed := append(append([][]byte(nil), keys[:40]...), storeKeys("ghost", 40)...)
	ok, err := s.DeleteBatch(mixed)
	if err != nil {
		t.Fatal(err)
	}
	succeeded := 0
	for _, v := range ok {
		if v {
			succeeded++
		}
	}
	wantLen := 100 - succeeded
	if s.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", s.Len(), wantLen)
	}
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay must land on exactly the same count: failed deletes were
	// never logged, so recovery cannot double-apply them.
	r, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != wantLen {
		t.Fatalf("recovered Len = %d, want %d", r.Len(), wantLen)
	}
	for _, k := range keys[40:] {
		if !r.Contains(k) {
			t.Fatalf("false negative on surviving key %q", k)
		}
	}
}

// openFailedDeleteStore opens a one-shard store of 64 words seeded with
// seed, inserts k0..k63, and deletes absent0..absent7, each of which
// must fail, running check after each. The geometry is small enough that
// absent keys share words with acked ones.
func openFailedDeleteStore(t *testing.T, seed uint32, check func(*Store)) (*Store, StoreOptions) {
	t.Helper()
	opts := testStoreOptions(t.TempDir())
	opts.Filter = mpcbf.Options{MemoryBits: 4096, ExpectedItems: 64, Seed: seed}
	opts.Shards = 1
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i := 0; i < 64; i++ {
		if err := s.Insert([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := s.Delete([]byte(fmt.Sprintf("absent%d", i))); err == nil {
			t.Fatalf("DELETE absent%d succeeded", i)
		}
		check(s)
	}
	return s, opts
}

// TestStoreFailedDeleteKeepsAckedKeys: a DELETE that fails changes no
// counter, so every acked key still reads present after it. (With seed
// 1, absent3 shares a word with k49.)
func TestStoreFailedDeleteKeepsAckedKeys(t *testing.T) {
	openFailedDeleteStore(t, 1, func(s *Store) {
		for i := 0; i < 64; i++ {
			if k := fmt.Sprintf("k%d", i); !s.Contains([]byte(k)) {
				t.Fatalf("acked key %s reads absent after a failed delete", k)
			}
		}
	})
}

// TestStoreFailedDeleteReplaysIdentically: a failed DELETE logs nothing,
// so it must change nothing either — a store replayed from a crash copy
// of the data directory holds the live store's exact bytes.
func TestStoreFailedDeleteReplaysIdentically(t *testing.T) {
	s, opts := openFailedDeleteStore(t, 0, func(*Store) {})
	opts.Dir = filepath.Join(t.TempDir(), "crash")
	copyDir(t, s.opts.Dir, opts.Dir)
	r, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	live, err := s.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := r.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, replayed) {
		t.Fatal("store replayed from a crash copy differs from the live store")
	}
}

func TestStoreEstimateAndLen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := []byte("multiplicity")
	for i := 0; i < 3; i++ {
		if err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.EstimateCount(k); n < 3 {
		t.Fatalf("EstimateCount = %d, want >= 3", n)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.ContainsBatch([][]byte{k, []byte("absent-key-xyz")}); !got[0] {
		t.Fatal("ContainsBatch lost the inserted key")
	}
}
