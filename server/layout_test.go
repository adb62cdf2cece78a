package server

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func fileExists(t *testing.T, path string) bool {
	t.Helper()
	_, err := os.Stat(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err == nil
}

// TestScanDirRecognisesOnlyItsNames lists a directory holding every
// file kind the store writes, each temp and staged form, and names it
// does not write: a name is recognised only when formatting what was
// parsed from it gives the name back.
func TestScanDirRecognisesOnlyItsNames(t *testing.T) {
	dir := t.TempDir()
	names := []string{
		"snapshot-0000000000000002.snap", "snapshot-0000000000000010.snap",
		"wal-0000000000000002.log", "wal-000000000000000a.log",
		"ns-a.b.snap", "ns-a.snap",
		// Leftovers.
		"snapshot-0000000000000003.snap.tmp", "ns-a.snap.tmp", "ns-a.snap.load",
		// Not the store's: short or upper-case seqs, forms it never
		// writes, invalid namespace names, foreign files.
		"snapshot-2.snap", "snapshot-000000000000000A.snap", "snapshot-0000000000000002.snap.load",
		"wal-0000000000000002.log.tmp", "wal-00000000000000002.log", "ns-.snap", "ns-a b.snap",
		"ns-a.snap.tmp.old", "notes.txt",
	}
	for _, n := range names {
		if err := os.WriteFile(filepath.Join(dir, n), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := dirFiles{
		snapshots: []uint64{2, 16},
		segments:  []uint64{2, 10},
		evicted:   []string{"a.b", "a"},
		leftovers: []string{
			filepath.Join(dir, "ns-a.snap.load"), filepath.Join(dir, "ns-a.snap.tmp"),
			filepath.Join(dir, "snapshot-0000000000000003.snap.tmp"),
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanDir = %+v\nwant %+v", got, want)
	}
}

// TestStoreCrashDuringFirstSnapshot: a crash after the first snapshot's
// cut and before its rename leaves two segments and a partial temp file
// but no published snapshot. Every acked key is in the segments, so the
// store opens, as a primary and as a replica, with every one, and the
// temp file is gone.
func TestStoreCrashDuringFirstSnapshot(t *testing.T) {
	for _, replica := range []bool{false, true} {
		t.Run(fmt.Sprintf("replica=%v", replica), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(testStoreOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			keys := storeKeys("first-snap", 100)
			if err := s.InsertBatch(keys[:60]); err != nil {
				t.Fatal(err)
			}
			tmp, seq, _, _, err := s.cut()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.InsertBatch(keys[60:]); err != nil {
				t.Fatal(err)
			}
			// Crash before the fsync and rename: half the temp file made it.
			fi, err := tmp.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if err := tmp.Truncate(fi.Size() / 2); err != nil {
				t.Fatal(err)
			}
			tmp.Close()
			if err := s.wal.Close(); err != nil {
				t.Fatal(err)
			}
			if files, _ := scanDir(dir); len(files.snapshots) != 0 || len(files.segments) != 2 || len(files.leftovers) != 1 {
				t.Fatalf("crash left %+v, want two segments and one temp file", files)
			}

			opts := testStoreOptions(dir)
			opts.Replica = replica
			r, err := OpenStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for _, k := range keys {
				if !r.Contains(k) {
					t.Fatalf("acked key %q reads absent", k)
				}
			}
			if fileExists(t, tempPath(snapshotPath(dir, seq))) {
				t.Fatal("the open left the snapshot temp file")
			}
		})
	}
}

// TestStoreStaleTempKeepsPredecessor: a crash during snapshot 3 leaves
// its temp file beside snapshot 2, and another temp file of that name
// appears while the reopened store runs, as an overlapping snapshot's
// would. Neither may pass for a snapshot: after snapshot 4, snapshot 2
// and every segment from 2 up remain, and the running temp file too.
func TestStoreStaleTempKeepsPredecessor(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	keys := storeKeys("stale-temp", 300)
	if err := s.InsertBatch(keys[:100]); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch(keys[100:200]); err != nil {
		t.Fatal(err)
	}
	tmp, seq, _, _, err := s.cut()
	if err != nil {
		t.Fatal(err)
	}
	tmp.Close() // crash before the fsync and rename
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	stale := tempPath(snapshotPath(dir, seq))
	if seq != 3 || !fileExists(t, stale) {
		t.Fatalf("crash left snapshot %d's temp file: %v", seq, fileExists(t, stale))
	}

	r, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if fileExists(t, stale) {
		t.Fatal("the open left the stale temp file")
	}
	if err := os.WriteFile(stale, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertBatch(keys[200:]); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	files, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(files.snapshots, []uint64{2, 4}) || !reflect.DeepEqual(files.segments, []uint64{2, 3, 4}) {
		t.Fatalf("after snapshot 4: snapshots %v, segments %v; want [2 4], [2 3 4]", files.snapshots, files.segments)
	}
	if !fileExists(t, stale) {
		t.Fatal("cleanup removed a temp file created while the store ran")
	}
	for _, k := range keys {
		if !r.Contains(k) {
			t.Fatalf("acked key %q reads absent", k)
		}
	}
}

// TestOpenStoreSweepsLeftovers: the open removes a snapshot temp, an
// evict temp and a staged evict file a crash left, and leaves alone a
// file the layout does not recognise.
func TestOpenStoreSweepsLeftovers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	keys := storeKeys("sweep", 100)
	if err := s.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	leftovers := []string{
		tempPath(snapshotPath(dir, 9)),
		tempPath(nsSnapPath(dir, "gone")),
		stagedPath(nsSnapPath(dir, "gone")),
	}
	foreign := filepath.Join(dir, "snapshot-9.snap.tmp")
	for _, p := range append(leftovers, foreign) {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, p := range leftovers {
		if fileExists(t, p) {
			t.Errorf("the open left %s", filepath.Base(p))
		}
	}
	if !fileExists(t, foreign) {
		t.Error("the open removed a file the layout does not recognise")
	}
	for _, k := range keys {
		if !r.Contains(k) {
			t.Fatalf("acked key %q reads absent", k)
		}
	}
}
