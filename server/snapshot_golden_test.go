package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	mpcbf "repro"
)

// testdata/pinned-store/dir is a data directory written by the store
// before snapshot loading streamed: a plain default filter plus four
// namespaces (plain resident, plain evicted, windowed, elastic), one
// snapshot, and a WAL tail after it, left as a crash would leave it. The
// golden files beside it are what that same build produced from it:
// the DUMP right after reopening, the WAL segment goldenOps then wrote,
// and the snapshot Close took afterwards.
const pinnedStore = "testdata/pinned-store"

func goldenStoreOptions(dir string) StoreOptions {
	return StoreOptions{
		Dir:    dir,
		Filter: mpcbf.Options{MemoryBits: 1 << 16, ExpectedItems: 2000, Seed: 7},
		Shards: 4,
		Sync:   SyncAlways,
		Log:    discardLog(),
	}
}

// goldenOps is the fixed mutation sequence applied after reopening the
// pinned directory: default-filter batches plus one batch per
// namespace, which recovers the evicted one and grows the elastic one.
func goldenOps(t *testing.T, s *Store) {
	t.Helper()
	keys := storeKeys("golden-post", 40)
	if err := s.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeleteBatch(append(keys[:5:5], []byte("golden-absent"))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"plain-a", "plain-b", "win", "el"} {
		nsInsertBatch(t, s, name, storeKeys("golden-post-"+name, 30))
	}
	if err := s.Insert([]byte("golden-last")); err != nil {
		t.Fatal(err)
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(pinnedStore, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPinnedStoreByteIdentical opens a directory an earlier build wrote
// and requires byte-identical DUMP, WAL and snapshot output: streaming
// the load and presizing the marshal change no byte on disk or wire.
func TestPinnedStoreByteIdentical(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join(pinnedStore, "dir"), dir)
	s, err := OpenStore(goldenStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	dump, err := s.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump, readGolden(t, "dump.golden")) {
		t.Fatal("DUMP of the reopened pinned directory differs from the pinned DUMP")
	}
	goldenOps(t, s)
	seq, _ := s.wal.Pos()
	walBytes, err := os.ReadFile(walPath(dir, seq))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(walBytes, readGolden(t, "wal.golden")) {
		t.Fatal("WAL segment written by goldenOps differs from the pinned one")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(snapshotPath(dir, snaps[len(snaps)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, readGolden(t, "snapshot.golden")) {
		t.Fatal("snapshot file written at Close differs from the pinned one")
	}
}
