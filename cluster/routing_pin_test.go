package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/client"
	"repro/internal/hashing"
	"repro/server/wire"
)

// dataOps is the data API the pinning test drives on the default
// filter and on a namespace alike.
type dataOps interface {
	InsertBatch(keys [][]byte) error
	Insert(key []byte) error
	ContainsBatch(keys [][]byte) ([]bool, error)
	Contains(key []byte) (bool, error)
	EstimateCount(key []byte) (int, error)
	Len() (int, error)
	DeleteBatch(keys [][]byte) ([]bool, error)
	Delete(key []byte) error
}

// nodeCounts is the routing-counter subset of NodeStats the test
// derives from placement.
type nodeCounts struct {
	Requests, Batches, BatchKeys, Failovers uint64
}

// TestJointEpochPlacementAndCounters pins the cluster client's routing
// inside a joint (dual-write) epoch, for the default filter and for a
// namespace: where every key lands on the nodes, and what every
// per-node routing counter reads afterwards. Both are recomputed here
// from the placement definition — rendezvous hashing with the node seed
// XXHash64(addr, rendezvousSalt), XORed for a namespace with
// XXHash64(name, nsRouteSalt) — and the joint-epoch rules: the default
// filter writes and reads a moving key on both owners, a namespace
// routes on the pre-change membership only, and deletes and Len stay on
// the pre-change side.
func TestJointEpochPlacementAndCounters(t *testing.T) {
	addrs := make([]string, 3)
	direct := make([]*client.Client, 3)
	for i := range addrs {
		_, addrs[i] = startPrimary(t)
		c, err := client.Dial(addrs[i], client.WithTimeout(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		direct[i] = c
	}
	oldSide, newSide := addrs[:2], addrs

	cc, err := NewClient(ClientConfig{
		Nodes:   []Node{{Primary: addrs[0]}, {Primary: addrs[1]}},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if ok, err := cc.UpdateRing(wire.Ring{Epoch: 1, Joint: true, Old: oldSide, New: newSide}); err != nil || !ok {
		t.Fatalf("UpdateRing = %v, %v", ok, err)
	}

	want := map[string]*nodeCounts{}
	for _, a := range addrs {
		want[a] = &nodeCounts{}
	}
	owner := func(side []string, nsH uint64, key []byte) string {
		best, bestScore := "", uint64(0)
		for i, a := range side {
			seed := hashing.XXHash64([]byte(a), rendezvousSalt)
			if s := hashing.XXHash64(key, seed^nsH); i == 0 || s > bestScore {
				best, bestScore = a, s
			}
		}
		return best
	}
	// batch tallies one fanned-out batch over side.
	batch := func(side []string, nsH uint64, ks [][]byte) {
		per := map[string]uint64{}
		for _, k := range ks {
			per[owner(side, nsH, k)]++
		}
		for a, n := range per {
			want[a].Requests++
			want[a].Batches++
			want[a].BatchKeys += n
		}
	}
	checkCounters := func(stage string) {
		t.Helper()
		got := map[string]nodeCounts{}
		for _, ns := range cc.Snapshot().Nodes {
			got[ns.Primary] = nodeCounts{ns.Requests, ns.Batches, ns.BatchKeys, ns.Failovers}
		}
		for i, a := range addrs {
			if got[a] != *want[a] {
				t.Errorf("%s: node %d counters = %+v, want %+v", stage, i, got[a], *want[a])
			}
		}
	}

	const nsName = "pin-ns"
	if err := cc.CreateNamespace(nsName, wire.NsConfig{MemoryBits: 1 << 19, ExpectedItems: 5000, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for _, a := range newSide { // admin ops reach both ring sides
		want[a].Requests++
	}
	checkCounters("CreateNamespace")

	for _, tc := range []struct {
		name string
		h    dataOps
	}{
		{"", cc},
		{nsName, cc.Namespace(nsName)},
	} {
		label := fmt.Sprintf("ns %q", tc.name)
		var nsH uint64
		dual := tc.name == "" // only the default filter dual-writes
		if !dual {
			nsH = hashing.XXHash64([]byte(tc.name), nsRouteSalt)
		}
		moving := func(k []byte) bool {
			return dual && owner(oldSide, nsH, k) != owner(newSide, nsH, k)
		}
		movingOf := func(ks [][]byte) (out [][]byte) {
			for _, k := range ks {
				if moving(k) {
					out = append(out, k)
				}
			}
			return out
		}
		nodeLen := func(i int) int {
			t.Helper()
			n, err := direct[i].Namespace(tc.name).Len()
			if err != nil {
				t.Fatal(err)
			}
			return n
		}

		batchKeys := keys("pin-b"+tc.name, 60)
		singles := keys("pin-s"+tc.name, 20)
		absent := keys("pin-absent"+tc.name, 20)
		all := append(append([][]byte(nil), batchKeys...), singles...)

		if err := tc.h.InsertBatch(batchKeys); err != nil {
			t.Fatal(err)
		}
		batch(oldSide, nsH, batchKeys)
		if mv := movingOf(batchKeys); len(mv) > 0 {
			batch(newSide, nsH, mv)
		}
		for _, k := range singles {
			if err := tc.h.Insert(k); err != nil {
				t.Fatal(err)
			}
			want[owner(oldSide, nsH, k)].Requests++
			if moving(k) {
				want[owner(newSide, nsH, k)].Requests++
			}
		}
		if dual && len(movingOf(all)) == 0 {
			t.Fatal("no key moves to the incoming node; the test exercises nothing")
		}
		checkCounters(label + " inserts")

		// Placement: the pre-change owners hold every key once, and the
		// incoming node holds exactly the default filter's moving keys.
		for i, a := range addrs {
			wantLen := 0
			for _, k := range all {
				if i < 2 && owner(oldSide, nsH, k) == a {
					wantLen++
				}
				if i == 2 && moving(k) {
					wantLen++
				}
			}
			if got := nodeLen(i); got != wantLen {
				t.Fatalf("%s: node %d holds %d keys, want %d", label, i, got, wantLen)
			}
		}

		probe := append(append([][]byte(nil), all...), absent...)
		flags, err := tc.h.ContainsBatch(probe)
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range flags {
			if ok != (i < len(all)) {
				t.Fatalf("%s: ContainsBatch[%d] = %v", label, i, ok)
			}
		}
		batch(oldSide, nsH, probe)
		if mv := movingOf(probe); len(mv) > 0 {
			batch(newSide, nsH, mv)
		}
		contains := func(k []byte, present bool) {
			t.Helper()
			if ok, err := tc.h.Contains(k); err != nil || ok != present {
				t.Fatalf("%s: Contains(%s) = %v, %v", label, k, ok, err)
			}
			want[owner(oldSide, nsH, k)].Requests++
			if !present && moving(k) { // a miss is asked of the incoming owner too
				want[owner(newSide, nsH, k)].Requests++
			}
		}
		for _, k := range all[:5] {
			contains(k, true)
		}
		for _, k := range absent {
			contains(k, false)
		}
		for _, k := range all[:10] {
			if v, err := tc.h.EstimateCount(k); err != nil || v < 1 {
				t.Fatalf("%s: EstimateCount(%s) = %d, %v", label, k, v, err)
			}
			want[owner(oldSide, nsH, k)].Requests++
			if moving(k) {
				want[owner(newSide, nsH, k)].Requests++
			}
		}
		if n, err := tc.h.Len(); err != nil || n != len(all) {
			t.Fatalf("%s: Len = %d, %v, want %d", label, n, err, len(all))
		}
		for _, a := range oldSide {
			want[a].Requests++
		}
		checkCounters(label + " reads")

		removed, err := tc.h.DeleteBatch(batchKeys)
		if err != nil {
			t.Fatal(err)
		}
		for i, ok := range removed {
			if !ok {
				t.Fatalf("%s: DeleteBatch[%d] not removed", label, i)
			}
		}
		batch(oldSide, nsH, batchKeys)
		for _, k := range singles {
			if err := tc.h.Delete(k); err != nil {
				t.Fatal(err)
			}
			want[owner(oldSide, nsH, k)].Requests++
		}
		checkCounters(label + " deletes")

		// Deletes empty only the pre-change side: the incoming node keeps
		// its dual-written copies.
		for i := range addrs {
			wantLen := 0
			if i == 2 {
				wantLen = len(movingOf(all))
			}
			if got := nodeLen(i); got != wantLen {
				t.Fatalf("%s after deletes: node %d holds %d keys, want %d", label, i, got, wantLen)
			}
		}
	}
}
