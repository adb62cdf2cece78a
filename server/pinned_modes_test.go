package server

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	mpcbf "repro"
	"repro/server/ns"
	"repro/server/wire"
)

// testdata/pinned-window and testdata/pinned-elastic pin a default-window
// and a default-elastic store the way testdata/pinned-store pins a plain
// one. Each dir/ is a data directory holding one snapshot and a WAL tail,
// left as a crash would leave it. Before the snapshot the default filter
// took batches, deletes and either TTL placements and a rotation (window)
// or growth and an IMPORT (elastic), and plain, windowed, elastic and
// to-be-dropped namespaces were created and filled; one namespace was
// evicted. The tail adds more of the same, a rotation or growth, a
// namespace created, one created lazily, and one dropped. Rotations are
// always driven explicitly, never by the clock. The golden files beside
// dir/ are what the store produced from it before the default filter
// became namespace "": the DUMP right after reopening, the WAL segment
// pinnedModeOps then wrote, and the snapshot Close took afterwards.
var pinnedModes = []string{"window", "elastic"}

// pinnedModeOptions is the store configuration of the pinned fixtures
// and the dispatch transcript: small filters, a one-hour window (so the
// clock never rotates inside a test) or an elastic chain that grows
// within a few hundred keys.
func pinnedModeOptions(dir, mode string) StoreOptions {
	o := StoreOptions{
		Dir:        dir,
		Filter:     mpcbf.Options{MemoryBits: 1 << 14, ExpectedItems: 400, Seed: 11},
		Shards:     2,
		Sync:       SyncAlways,
		Log:        discardLog(),
		NsDefaults: ns.Config{MemoryBits: 1 << 13, ExpectedItems: 200, Shards: 2},
	}
	switch mode {
	case "window":
		o.Window, o.Generations = time.Hour, 4
	case "elastic":
		o.Elastic, o.ElasticFPR = true, 0.02
	}
	return o
}

// pinSend dispatches one request payload, wrapped in the NAMESPACED
// envelope when name is not empty, waits out its commit, and returns a
// copy of the response.
func pinSend(t *testing.T, srv *Server, name string, payload []byte) []byte {
	t.Helper()
	if name != "" {
		payload = append(wire.AppendNamespaced(nil, []byte(name)), payload...)
	}
	req, err := wire.DecodeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, ticket, _ := srv.dispatch(req, nil, nil, nil)
	if err := srv.store.waitDurable(ticket, nil); err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), resp...)
}

// pinOK is pinSend for a request that must succeed.
func pinOK(t *testing.T, srv *Server, name string, payload []byte) {
	t.Helper()
	if resp := pinSend(t, srv, name, payload); resp[0] != wire.StatusOK {
		t.Fatalf("ns %q op 0x%02x: %q", name, payload[0], resp)
	}
}

// pinBlob is a small plain filter holding 50 keys, for IMPORT.
func pinBlob(t *testing.T, prefix string) []byte {
	t.Helper()
	f, err := mpcbf.NewSharded(mpcbf.Options{MemoryBits: 1 << 12, ExpectedItems: 100, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range storeKeys(prefix, 50) {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// pinnedModeOps is the fixed request sequence applied after reopening a
// pinned directory: default-filter batches and mode-specific work (TTL
// placements and rotations, or single-insert growth and imports), then
// one batch per namespace, which recovers the evicted one and lazily
// creates another.
func pinnedModeOps(t *testing.T, srv *Server, mode string) {
	t.Helper()
	keys := storeKeys("pin-post", 30)
	pinOK(t, srv, "", wire.AppendBatchRequest(nil, wire.OpInsertBatch, keys))
	pinOK(t, srv, "", wire.AppendBatchRequest(nil, wire.OpDeleteBatch, [][]byte{keys[0], []byte("pin-absent")}))
	switch mode {
	case "window":
		pinOK(t, srv, "", wire.AppendInsertTTLRequest(nil, []byte("pin-ttl"), uint64(20*time.Minute)))
		rotateForTest(t, srv.store, "")
		pinOK(t, srv, "", wire.AppendInsertTTLBatchRequest(nil, storeKeys("pin-post-ttl", 10), uint64(40*time.Minute)))
		rotateForTest(t, srv.store, "n-win")
		pinOK(t, srv, "n-win", wire.AppendInsertTTLRequest(nil, []byte("pin-ns-ttl"), uint64(time.Minute)))
	case "elastic":
		for _, k := range storeKeys("pin-post-grow", 300) {
			pinOK(t, srv, "", wire.AppendKeyRequest(nil, wire.OpInsert, k))
		}
		pinOK(t, srv, "", wire.AppendImportRequest(nil, pinBlob(t, "pin-import")))
		pinOK(t, srv, "n-el", wire.AppendImportRequest(nil, pinBlob(t, "pin-ns-import")))
	}
	for _, name := range []string{"n-ev", "n-win", "n-el", "n-lazy", "n-post"} {
		pinOK(t, srv, name, wire.AppendBatchRequest(nil, wire.OpInsertBatch, storeKeys("pin-post-"+name, 40)))
	}
	pinOK(t, srv, "", wire.AppendNsDropRequest(nil, []byte("n-late")))
	pinOK(t, srv, "", wire.AppendKeyRequest(nil, wire.OpInsert, []byte("pin-last")))
}

func readFixture(t *testing.T, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPinnedModeStoresByteIdentical opens the pinned default-window and
// default-elastic directories and requires byte-identical DUMP, WAL and
// snapshot output.
func TestPinnedModeStoresByteIdentical(t *testing.T) {
	for _, mode := range pinnedModes {
		t.Run(mode, func(t *testing.T) {
			fixture := filepath.Join("testdata", "pinned-"+mode)
			dir := t.TempDir()
			copyDir(t, filepath.Join(fixture, "dir"), dir)
			s, err := OpenStore(pinnedModeOptions(dir, mode))
			if err != nil {
				t.Fatal(err)
			}
			dump, err := s.MarshalFilter()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dump, readFixture(t, fixture, "dump.golden")) {
				t.Fatal("DUMP of the reopened pinned directory differs from the pinned DUMP")
			}
			pinnedModeOps(t, New(s, Config{Log: discardLog()}, nil), mode)
			seq, _ := s.wal.Pos()
			if !bytes.Equal(readFixture(t, dir, walPath("", seq)), readFixture(t, fixture, "wal.golden")) {
				t.Fatal("WAL segment written by pinnedModeOps differs from the pinned one")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			snaps, err := listSnapshots(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readFixture(t, dir, snapshotPath("", snaps[len(snaps)-1])), readFixture(t, fixture, "snapshot.golden")) {
				t.Fatal("snapshot file written at Close differs from the pinned one")
			}
		})
	}
}
