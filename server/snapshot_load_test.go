package server

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
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
// that snapshot stays within the same bound.
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
	if n = allocatedBy(func() { err = verifySnapshot(path) }); err != nil || n > bound {
		t.Fatalf("verifySnapshot allocated %d bytes (bound %d): %v", n, bound, err)
	}
	t.Logf("verifySnapshot: filter + %d bytes", n-filterBytes)
}
