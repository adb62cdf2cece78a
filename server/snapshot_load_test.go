package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	mpcbf "repro"
	"repro/server/wire"
)

// newestSnapshot returns the path of dir's newest snapshot file.
func newestSnapshot(t *testing.T, dir string) string {
	t.Helper()
	snaps, err := listSnapshots(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshots in %s: %v %v", dir, snaps, err)
	}
	return snapshotPath(dir, snaps[len(snaps)-1])
}

// TestSnapshotLoadRoundTripsEveryPayload writes each payload kind
// through a real snapshot file and reopens it through the streaming
// loader: the reopened store must DUMP the exact bytes it was closed
// with. The namespace container carries a resident and an evicted plain
// namespace next to a windowed and an elastic one; the evicted one must
// come back evicted, from an evict file rewritten byte for byte.
func TestSnapshotLoadRoundTripsEveryPayload(t *testing.T) {
	plain := testStoreOptions("")
	windowed := testStoreOptions("")
	windowed.Window, windowed.Generations = time.Hour, 3
	elasticOpts := testStoreOptions("")
	elasticOpts.Elastic = true
	elasticOpts.Filter = mpcbf.Options{MemoryBits: 1 << 14, ExpectedItems: 200, Seed: 5}
	cases := []struct {
		name       string
		opts       StoreOptions
		namespaces bool
	}{
		{"plain", plain, false},
		{"window", windowed, false},
		{"elastic", elasticOpts, false},
		{"container", plain, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Dir = t.TempDir()
			s, err := OpenStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.InsertBatch(storeKeys("payload", 600)); err != nil {
				t.Fatal(err)
			}
			if tc.namespaces {
				for name, cfg := range map[string]wire.NsConfig{
					"res":   {MemoryBits: 1 << 15, ExpectedItems: 500, Shards: 2},
					"ev":    {MemoryBits: 1 << 15, ExpectedItems: 500, Shards: 3},
					"win":   {MemoryBits: 1 << 13, ExpectedItems: 200, WindowNanos: uint64(time.Hour), Generations: 2},
					"chain": {MemoryBits: 1 << 13, ExpectedItems: 100, Flags: wire.NsFlagElastic},
				} {
					if _, err := s.nsCreateEnq([]byte(name), cfg, nil); err != nil {
						t.Fatal(err)
					}
					nsInsertBatch(t, s, name, storeKeys("payload-"+name, 150))
				}
				s.mu.Lock()
				err := s.reg.Evict(s.reg.Lookup([]byte("ev")))
				s.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			}
			want, err := s.MarshalFilter()
			if err != nil {
				t.Fatal(err)
			}
			var evicted []byte
			if tc.namespaces {
				if evicted, err = os.ReadFile(nsSnapPath(opts.Dir, "ev")); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.namespaces {
				// The load must rewrite the evict file from the snapshot, not
				// trust the local one.
				os.Remove(nsSnapPath(opts.Dir, "ev"))
			}

			r, err := OpenStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, err := r.MarshalFilter()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("DUMP after reopen differs (%d vs %d bytes)", len(got), len(want))
			}
			if !tc.namespaces {
				return
			}
			if st, _ := r.NsStats([]byte("ev")); st.Resident {
				t.Fatal("evicted namespace came back resident")
			}
			back, err := os.ReadFile(nsSnapPath(opts.Dir, "ev"))
			if err != nil || !bytes.Equal(back, evicted) {
				t.Fatalf("evict file not restored byte for byte: %v", err)
			}
			if staged, _ := filepath.Glob(filepath.Join(opts.Dir, "*"+stagedSuffix)); len(staged) != 0 {
				t.Fatalf("staged evict files left behind: %v", staged)
			}
			nsMustContain(t, r, "ev", storeKeys("payload-ev", 150))
		})
	}
}

// shardBoundaries returns the file offsets at which each shard's
// encoding starts in a plain-filter snapshot file, plus the file end.
func shardBoundaries(t *testing.T, blob []byte) []int {
	t.Helper()
	const envelope, header = 8, 24
	nShards := int(binary.LittleEndian.Uint32(blob[envelope+12:]))
	off := envelope + header
	var out []int
	for i := 0; i < nShards; i++ {
		out = append(out, off)
		off += 4 + int(binary.LittleEndian.Uint32(blob[off:]))
	}
	if off != len(blob) {
		t.Fatalf("shard table ends at %d, file is %d bytes", off, len(blob))
	}
	return append(out, off-1)
}

// TestSnapshotTruncatedOrFlippedFallsBack cuts the newest snapshot at
// every shard boundary and flips single bytes across it (first payload
// byte, a shard header, the last byte): each damaged file must fail to
// load cleanly, and recovery must fall back to the retained predecessor
// plus its WAL segments with zero loss — the streaming loader sees the
// damage only at the end of the stream, and must still not publish
// anything it decoded before.
func TestSnapshotTruncatedOrFlippedFallsBack(t *testing.T) {
	base := t.TempDir()
	s, err := OpenStore(testStoreOptions(base))
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
	if err := s.Close(); err != nil { // newest generation
		t.Fatal(err)
	}
	all := append(append([][]byte(nil), keys...), extra...)
	newest := newestSnapshot(t, base)
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string][]byte{}
	bounds := shardBoundaries(t, blob)
	for _, off := range bounds {
		damage["truncated@"+strconv.Itoa(off)] = blob[:off]
		flipped := append([]byte(nil), blob...)
		flipped[off] ^= 0x01
		damage["flipped@"+strconv.Itoa(off)] = flipped
	}
	first := append([]byte(nil), blob...)
	first[8] ^= 0x80
	damage["flipped@8"] = first

	for name, bad := range damage {
		t.Run(name, func(t *testing.T) {
			if err := verifySnapshot(writeTemp(t, bad)); err == nil {
				t.Fatal("damaged snapshot verifies")
			}
			dir := t.TempDir()
			copyDir(t, base, dir)
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(newest)), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := OpenStore(testStoreOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Len() != len(all) {
				t.Fatalf("recovered Len = %d, want %d", r.Len(), len(all))
			}
			for _, k := range all {
				if !r.Contains(k) {
					t.Fatalf("false negative on %q after fallback", k)
				}
			}
		})
	}
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// allocatedBy reports the bytes fn allocated on the heap.
func allocatedBy(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenStoreAllocationBounded pins the streaming load's memory: a
// store holding a 64 MiB filter reopens allocating the filter plus at
// most 2 MiB — the snapshot file's bytes are never held — and verifying
// that snapshot, which builds no filter, allocates at most 256 KiB.
func TestOpenStoreAllocationBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are distorted under -race")
	}
	const filterBytes = 64 << 20
	opts := testStoreOptions(t.TempDir())
	opts.Filter = mpcbf.Options{MemoryBits: filterBytes * 8, ExpectedItems: 1 << 22, Seed: 42}
	opts.Shards = 16
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch(storeKeys("bounded", 20000)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = nil
	const bound = filterBytes + 2<<20

	var r *Store
	n := allocatedBy(func() { r, err = OpenStore(opts) })
	if err != nil || n > bound {
		t.Fatalf("OpenStore allocated %d bytes (bound %d): %v", n, bound, err)
	}
	defer r.Close()
	t.Logf("OpenStore: filter + %d bytes", n-filterBytes)
	if !r.Contains([]byte("bounded-7")) {
		t.Fatal("reopened store lost a key")
	}
	path := newestSnapshot(t, opts.Dir)
	const verifyBound = 256 << 10
	if n = allocatedBy(func() { err = verifySnapshot(path) }); err != nil || n > verifyBound {
		t.Fatalf("verifySnapshot allocated %d bytes (bound %d): %v", n, verifyBound, err)
	}
	t.Logf("verifySnapshot: %d bytes", n)
}

// TestSnapshotAllocationBounded pins a snapshot's memory: the state
// streams from the filters into the snapshot file, and the verify pass
// reads it back without building a filter, so a store holding a 64 MiB
// filter snapshots allocating under 1 MiB — bare, and as a namespace
// container that also carries a resident and an evicted namespace.
func TestSnapshotAllocationBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation totals are distorted under -race")
	}
	const filterBytes = 64 << 20
	for _, withNS := range []bool{false, true} {
		t.Run(fmt.Sprintf("namespaces=%v", withNS), func(t *testing.T) {
			opts := testStoreOptions(t.TempDir())
			opts.Filter = mpcbf.Options{MemoryBits: filterBytes * 8, ExpectedItems: 1 << 22, Seed: 42}
			opts.Shards = 16
			s, err := OpenStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.InsertBatch(storeKeys("snap-bounded", 20000)); err != nil {
				t.Fatal(err)
			}
			if withNS {
				for _, name := range []string{"snap-resident", "snap-evicted"} {
					nsInsertBatch(t, s, name, storeKeys(name, 500))
				}
				s.mu.Lock()
				err = s.reg.Evict(s.reg.Lookup([]byte("snap-evicted")))
				s.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Snapshot(); err != nil { // fills the buffer pools
				t.Fatal(err)
			}
			const bound = 1 << 20
			n := allocatedBy(func() { err = s.Snapshot() })
			if err != nil || n > bound {
				t.Fatalf("Snapshot allocated %d bytes (bound %d): %v", n, bound, err)
			}
			t.Logf("Snapshot: %d bytes", n)
		})
	}
}

// TestSnapshotWriteFailure makes a snapshot's write fail, once because
// its temp path is a directory and once because the state's encode
// fails mid-stream (an evicted namespace's evict file has gone): the
// snapshot reports the error and releases s.mu, leaves no temp file,
// publishes no snapshot and prunes nothing, and once the fault is gone
// the next snapshot succeeds and the store reopens with every key.
func TestSnapshotWriteFailure(t *testing.T) {
	faults := []struct {
		name  string
		apply func(t *testing.T, s *Store) (repair func())
	}{
		{"temp path is a directory", func(t *testing.T, s *Store) func() {
			seq, _ := s.wal.Pos()
			tmp := snapshotPath(s.opts.Dir, seq+1) + ".tmp"
			if err := os.Mkdir(tmp, 0o755); err != nil {
				t.Fatal(err)
			}
			return func() { os.Remove(tmp) }
		}},
		{"encode fails", func(t *testing.T, s *Store) func() {
			nsInsertBatch(t, s, "snap-fail", storeKeys("snap-fail", 100))
			s.mu.Lock()
			err := s.reg.Evict(s.reg.Lookup([]byte("snap-fail")))
			s.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			path := nsSnapPath(s.opts.Dir, "snap-fail")
			if err := os.Rename(path, path+".aside"); err != nil {
				t.Fatal(err)
			}
			return func() { os.Rename(path+".aside", path) }
		}},
	}
	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := testStoreOptions(dir)
			// No deferred Close: a snapshot that kept s.mu would hang it.
			s, err := OpenStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			keys := storeKeys("snap-fail-base", 100)
			if err := s.InsertBatch(keys); err != nil {
				t.Fatal(err)
			}
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
			tail := storeKeys("snap-fail-tail", 50)
			if err := s.InsertBatch(tail); err != nil {
				t.Fatal(err)
			}
			repair := fault.apply(t, s)
			before := dirNames(t, dir)
			if err := s.Snapshot(); err == nil {
				t.Fatal("snapshot succeeded despite the fault")
			}

			// A mutation behind the failed snapshot completes: s.mu is free.
			done := make(chan error, 1)
			go func() { done <- s.Insert([]byte("after-failure")) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("insert still blocked: the failed snapshot kept s.mu")
			}

			after := dirNames(t, dir)
			for name, regular := range after {
				// The rotation's new WAL segment is the only newcomer.
				if _, had := before[name]; !had && !strings.HasPrefix(name, "wal-") {
					t.Errorf("failed snapshot left %s", name)
				}
				if regular && filepath.Ext(name) == ".tmp" {
					t.Errorf("failed snapshot left temp file %s", name)
				}
			}
			for name := range before {
				if _, ok := after[name]; !ok {
					t.Errorf("failed snapshot pruned %s", name)
				}
			}

			repair()
			if err := s.Snapshot(); err != nil {
				t.Fatalf("snapshot after repair: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := OpenStore(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for _, k := range append(append(keys, tail...), []byte("after-failure")) {
				if !r.Contains(k) {
					t.Fatalf("reopened store lost %q", k)
				}
			}
		})
	}
}

// dirNames maps the names in dir to whether each is a regular file.
func dirNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool, len(entries))
	for _, e := range entries {
		names[e.Name()] = e.Type().IsRegular()
	}
	return names
}
