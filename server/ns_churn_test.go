package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	mpcbf "repro"
	"repro/server/wire"
)

// TestNamespaceChurnReadsUnderReuse runs lock-free reads beside
// recoveries that decode into the storage of the namespaces they evict.
// A quota holds N−1 of N namespaces of one geometry. A writer inserts
// into them round-robin, so each touch recovers a namespace into the
// arenas of the one it evicts, while readers loop CONTAINS, ESTIMATE and
// CONTAINS_BATCH through dispatch on keys already acked. A reader that
// read a filter whose arenas another namespace had taken over would see
// that namespace's counters: every acked key must read present, and the
// reuse counter must show the takeovers happened.
func TestNamespaceChurnReadsUnderReuse(t *testing.T) {
	const (
		spaces  = 4
		preload = 64
		rounds  = 300
		readers = 2
	)
	cfg := wire.NsConfig{MemoryBits: 1 << 14, ExpectedItems: 512, Shards: 2}
	opts := testStoreOptions(t.TempDir())
	opts.Sync = SyncNever
	opts.NsQuota = (spaces - 1) * int64(cfg.MemoryBits/8)
	st, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st, Config{}, nil)

	// keys[i][:acked[i]] are acknowledged inserts into namespace i.
	names := make([][]byte, spaces)
	keys := make([][][]byte, spaces)
	acked := make([]atomic.Int64, spaces)
	for i := range names {
		names[i] = []byte(fmt.Sprintf("churn-%d", i))
		if _, err := st.nsCreateEnq(names[i], cfg, nil); err != nil {
			t.Fatal(err)
		}
		keys[i] = storeKeys(string(names[i]), preload+rounds)
		nsInsertBatch(t, st, string(names[i]), keys[i][:preload])
		acked[i].Store(preload)
	}
	_, before := st.reg.Snapshot()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var sc mpcbf.BatchScratch
			var resp []byte
			for it := r; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				i := it % spaces
				ks := keys[i][:acked[i].Load()]
				key := ks[it%len(ks)]
				resp, _, _ = srv.dispatch(wire.Request{Op: wire.OpContains, NS: names[i], Key: key}, resp[:0], nil, nil)
				if ok, err := wire.DecodeBool(resp[1:]); resp[0] != wire.StatusOK || err != nil || !ok {
					t.Errorf("CONTAINS %s %q answered %x: acked key absent", names[i], key, resp)
					return
				}
				resp, _, _ = srv.dispatch(wire.Request{Op: wire.OpEstimate, NS: names[i], Key: key}, resp[:0], nil, nil)
				if n, err := wire.DecodeU64(resp[1:]); resp[0] != wire.StatusOK || err != nil || n == 0 {
					t.Errorf("ESTIMATE %s %q answered %x: acked key absent", names[i], key, resp)
					return
				}
				resp, _, _ = srv.dispatch(wire.Request{Op: wire.OpContainsBatch, NS: names[i], Keys: ks}, resp[:0], nil, &sc)
				flags, err := wire.DecodeBools(resp[1:])
				if resp[0] != wire.StatusOK || err != nil || len(flags) != len(ks) {
					t.Errorf("CONTAINS_BATCH %s answered %x: %v", names[i], resp, err)
					return
				}
				for j, ok := range flags {
					if !ok {
						t.Errorf("CONTAINS_BATCH %s: acked key %q absent", names[i], ks[j])
						return
					}
				}
			}
		}(r)
	}

	var resp []byte
	for round := 0; round < rounds; round++ {
		i := round % spaces
		n := acked[i].Load()
		var tkt uint64
		resp, tkt, _ = srv.dispatch(wire.Request{Op: wire.OpInsert, NS: names[i], Key: keys[i][n]}, resp[:0], nil, nil)
		if err := st.waitDurable(tkt, nil); resp[0] != wire.StatusOK || err != nil {
			t.Errorf("INSERT %s answered %x: %v", names[i], resp, err)
			break
		}
		acked[i].Store(n + 1)
	}
	close(stop)
	wg.Wait()

	// Only N−1 namespaces fit, so every round of N touches recovers one.
	_, after := st.reg.Snapshot()
	if after.Recoveries-before.Recoveries < rounds/spaces {
		t.Errorf("%d recoveries in %d round-robin touches, want at least one per round of %d", after.Recoveries-before.Recoveries, rounds, spaces)
	}
	if after.ReusedBytes <= before.ReusedBytes {
		t.Errorf("reused bytes %d -> %d: no recovery decoded into its victim's arenas", before.ReusedBytes, after.ReusedBytes)
	}
	t.Logf("%d recoveries reused %d bytes", after.Recoveries-before.Recoveries, after.ReusedBytes-before.ReusedBytes)
	for i, name := range names {
		nsMustContain(t, st, string(name), keys[i][:acked[i].Load()])
	}
}
