package mpcbf

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestShardedBasics(t *testing.T) {
	s, err := NewSharded(Options{MemoryBits: 1 << 20, ExpectedItems: 10000, Seed: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 8 {
		t.Fatalf("Shards = %d", s.Shards())
	}
	if s.MemoryBits() != 1<<20 {
		t.Fatalf("MemoryBits = %d", s.MemoryBits())
	}
	in := apiKeys("s", 10000)
	for _, k := range in {
		if err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 10000 {
		t.Fatalf("Len = %d", s.Len())
	}
	for _, k := range in {
		if !s.Contains(k) {
			t.Fatalf("false negative %q", k)
		}
		if s.EstimateCount(k) < 1 {
			t.Fatal("EstimateCount < 1 for member")
		}
	}
	for _, k := range in {
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len after deletes = %d", s.Len())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset broke count")
	}
}

func TestShardedDefaultsToOneShard(t *testing.T) {
	s, err := NewSharded(Options{MemoryBits: 1 << 16, ExpectedItems: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 1 {
		t.Fatalf("Shards = %d", s.Shards())
	}
}

func TestShardedRejectsTinyShards(t *testing.T) {
	if _, err := NewSharded(Options{MemoryBits: 128, ExpectedItems: 10}, 16); err == nil {
		t.Fatal("sub-word shards accepted")
	}
}

func TestShardedFPRComparableToMonolithic(t *testing.T) {
	const mem, n = 1 << 21, 20000
	mono, _ := New(Options{MemoryBits: mem, ExpectedItems: n, Seed: 2})
	shrd, err := NewSharded(Options{MemoryBits: mem, ExpectedItems: n, Seed: 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range apiKeys("in", n) {
		if err := mono.Insert(k); err != nil {
			t.Fatal(err)
		}
		if err := shrd.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	fpM, fpS := 0, 0
	const probes = 200000
	for _, k := range apiKeys("out", probes) {
		if mono.Contains(k) {
			fpM++
		}
		if shrd.Contains(k) {
			fpS++
		}
	}
	// Same aggregate geometry: the rates should be within noise of each
	// other (sharding must not cost accuracy).
	lo, hi := fpM/3, fpM*3+20
	if fpS < lo || fpS > hi {
		t.Fatalf("sharded fp=%d far from monolithic fp=%d", fpS, fpM)
	}
}

// TestShardedConcurrency hammers the filter from many goroutines; run
// with -race this validates the locking discipline.
func TestShardedConcurrency(t *testing.T) {
	s, err := NewSharded(Options{MemoryBits: 1 << 20, ExpectedItems: 8000, Seed: 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := []byte(fmt.Sprintf("w%d-%d", w, i))
				if err := s.Insert(k); err != nil {
					errs <- err
					return
				}
				if !s.Contains(k) {
					errs <- fmt.Errorf("false negative under concurrency: %s", k)
					return
				}
			}
			// Delete half of what this worker inserted.
			for i := 0; i < perWorker/2; i++ {
				k := []byte(fmt.Sprintf("w%d-%d", w, i))
				if err := s.Delete(k); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Len() != workers*perWorker/2 {
		t.Fatalf("Len = %d, want %d", s.Len(), workers*perWorker/2)
	}
	// Survivors all present.
	for w := 0; w < workers; w++ {
		for i := perWorker / 2; i < perWorker; i++ {
			k := []byte(fmt.Sprintf("w%d-%d", w, i))
			if !s.Contains(k) {
				t.Fatalf("lost %s", k)
			}
		}
	}
}

func TestBatchOps(t *testing.T) {
	s, err := NewSharded(Options{MemoryBits: 1 << 20, ExpectedItems: 20000, Seed: 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	in := apiKeys("b", 20000)
	if err := s.InsertBatch(in, 4); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 20000 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Mixed probe batch: alternate members and non-members; order must be
	// preserved.
	probe := make([][]byte, 0, 2000)
	for i := 0; i < 1000; i++ {
		probe = append(probe, in[i*7])
		probe = append(probe, []byte(fmt.Sprintf("absent-%d", i)))
	}
	got := s.ContainsBatch(probe, 0)
	if len(got) != len(probe) {
		t.Fatalf("result length %d", len(got))
	}
	misses := 0
	for i, ok := range got {
		if i%2 == 0 && !ok {
			t.Fatalf("false negative at batch index %d", i)
		}
		if i%2 == 1 && !ok {
			misses++
		}
	}
	if misses < 900 {
		t.Fatalf("only %d of 1000 non-members rejected", misses)
	}
	// Batch and scalar answers must agree.
	for i, k := range probe[:100] {
		if s.Contains(k) != got[i] {
			t.Fatalf("batch/scalar divergence at %d", i)
		}
	}
}

func TestBatchInsertConcurrentWithQueries(t *testing.T) {
	s, err := NewSharded(Options{MemoryBits: 1 << 20, ExpectedItems: 10000, Seed: 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := apiKeys("c", 10000)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s.ContainsBatch(in[:200], 2)
		}
	}()
	// Four workers plan and apply in parallel whatever GOMAXPROCS is.
	if err := s.InsertBatch(in, 4); err != nil {
		t.Fatal(err)
	}
	<-done
	for _, k := range in {
		if !s.Contains(k) {
			t.Fatalf("lost %q", k)
		}
	}
}

func TestShardedMarshalRoundTrip(t *testing.T) {
	s, err := NewSharded(Options{MemoryBits: 1 << 19, ExpectedItems: 5000, Seed: 11}, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := apiKeys("sm", 5000)
	if err := s.InsertBatch(in, 0); err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalSharded(data, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.Shards() != 4 || g.Len() != 5000 {
		t.Fatalf("shards=%d len=%d", g.Shards(), g.Len())
	}
	for _, k := range in {
		if !g.Contains(k) {
			t.Fatalf("false negative after round trip: %q", k)
		}
	}
	// The clone is functional: delete half and verify counts.
	for _, k := range in[:2500] {
		if err := g.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if g.Len() != 2500 {
		t.Fatalf("Len after deletes = %d", g.Len())
	}
	// Garbage rejection.
	for name, bad := range map[string][]byte{
		"empty":     {},
		"truncated": data[:20],
		"trailing":  append(append([]byte{}, data...), 1),
	} {
		if _, err := UnmarshalSharded(bad, 11); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMarshalPublicRoundTrip(t *testing.T) {
	f, err := New(Options{MemoryBits: 1 << 18, ExpectedItems: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := apiKeys("m", 2000)
	for _, k := range in {
		if err := f.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := UnmarshalMPCBF(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != f.Len() || g.Geometry() != f.Geometry() {
		t.Fatal("state mismatch after round trip")
	}
	for _, k := range in {
		if !g.Contains(k) {
			t.Fatalf("false negative after round trip: %q", k)
		}
	}
	if _, err := UnmarshalMPCBF([]byte("junk")); err == nil {
		t.Fatal("junk accepted")
	}
}

// TestShardedZeroValue pins the zero-value contract: mutating or keyed
// operations panic with a message naming the mistake (instead of an
// opaque divide-by-zero in the shard picker), while read-only aggregates
// stay safe and report emptiness.
func TestShardedZeroValue(t *testing.T) {
	var s Sharded

	wantPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s on zero Sharded did not panic", name)
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "NewSharded") {
				t.Fatalf("%s panic = %v, want a message pointing at NewSharded", name, r)
			}
		}()
		fn()
	}
	wantPanic("Insert", func() { s.Insert([]byte("k")) })
	wantPanic("Delete", func() { s.Delete([]byte("k")) })
	wantPanic("Contains", func() { s.Contains([]byte("k")) })
	wantPanic("EstimateCount", func() { s.EstimateCount([]byte("k")) })
	wantPanic("InsertBatch", func() { s.InsertBatch([][]byte{[]byte("k")}, 0) })
	wantPanic("DeleteBatch", func() { s.DeleteBatch([][]byte{[]byte("k")}, 0) })
	wantPanic("ContainsBatch", func() { s.ContainsBatch([][]byte{[]byte("k")}, 0) })

	// Aggregates on the zero value answer "empty", never panic.
	if s.Len() != 0 || s.MemoryBits() != 0 || s.Shards() != 0 || s.SaturatedWords() != 0 {
		t.Fatalf("zero Sharded aggregates: Len=%d MemoryBits=%d Shards=%d Saturated=%d",
			s.Len(), s.MemoryBits(), s.Shards(), s.SaturatedWords())
	}
	if fr := s.FillRatio(); fr != 0 {
		t.Fatalf("zero Sharded FillRatio = %v, want 0", fr)
	}
	if st, fill := s.ShardStats(); len(st) != 0 || fill != 0 {
		t.Fatalf("zero Sharded ShardStats = %v, %v, want empty", st, fill)
	}
	s.Reset() // no-op, must not panic
}

// TestContainsBatchInto checks the calling-goroutine batch read against
// the scalar path over batches of shrinking and growing size sharing one
// scratch, its per-shard query accounting, and that a warmed-up scratch
// makes the call allocation-free.
func TestContainsBatchInto(t *testing.T) {
	s, err := NewSharded(Options{MemoryBits: 1 << 18, ExpectedItems: 4000, Seed: 9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	in := apiKeys("into", 4000)
	if err := s.InsertBatch(in, 0); err != nil {
		t.Fatal(err)
	}
	var sc BatchScratch
	for _, n := range []int{300, 1, 0, 64, 1000} {
		probe := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				probe = append(probe, in[(i*13)%len(in)])
			} else {
				probe = append(probe, []byte(fmt.Sprintf("into-absent-%d", i)))
			}
		}
		got := s.ContainsBatchInto(probe, &sc)
		if len(got) != n {
			t.Fatalf("batch %d: %d answers", n, len(got))
		}
		for i, k := range probe {
			if got[i] != s.Contains(k) {
				t.Fatalf("batch %d: answer %d diverges from Contains", n, i)
			}
			if i%2 == 0 && !got[i] {
				t.Fatalf("batch %d: false negative at %d", n, i)
			}
		}
	}
	queries := uint64(0)
	shards, fill := s.ShardStats()
	for _, st := range shards {
		queries += st.Queries
	}
	if fill != s.FillRatio() || fill == 0 {
		t.Fatalf("ShardStats fill %v, FillRatio %v", fill, s.FillRatio())
	}
	// Every key was asked twice: once in a batch, once by Contains.
	if want := uint64(2 * (300 + 1 + 64 + 1000)); queries != want {
		t.Fatalf("shard query counters sum to %d, want %d", queries, want)
	}
	probe := in[:256]
	s.ContainsBatchInto(probe, &sc)
	if avg := testing.AllocsPerRun(50, func() { s.ContainsBatchInto(probe, &sc) }); avg != 0 {
		t.Fatalf("ContainsBatchInto with warm scratch: %.1f allocs/op, want 0", avg)
	}
	if got := s.ContainsBatchInto(probe, nil); len(got) != len(probe) {
		t.Fatal("nil scratch")
	}
}

// TestSmallBatchAllocs pins what a small mutation batch costs: ingest
// sends a 4-key DELETE_BATCH with every request. Such a batch is planned
// and applied on the calling goroutine in pooled scratch, so a warmed
// InsertBatch allocates nothing and DeleteBatch only its returned flags;
// a goroutine per shard would add at least 16. The Into forms plan in
// reused scratch and allocate nothing, on a Sharded and on a chain whose
// delete carries past a generation that lacks the keys.
func TestSmallBatchAllocs(t *testing.T) {
	s, err := NewSharded(Options{MemoryBits: 1 << 20, ExpectedItems: 10000, Seed: 3}, 16)
	if err != nil {
		t.Fatal(err)
	}
	keys := apiKeys("small", 4)
	ins := testing.AllocsPerRun(100, func() {
		if err := s.InsertBatch(keys, 0); err != nil {
			t.Fatal(err)
		}
	})
	del := testing.AllocsPerRun(100, func() {
		if _, err := s.DeleteBatch(keys, 0); err != nil {
			t.Fatal(err)
		}
	})
	// The race detector makes sync.Pool drop items at random, so there a
	// batch may plan in fresh scratch: three allocations of working memory.
	wantIns, wantDel := 0.0, 1.0
	if raceEnabled {
		wantIns, wantDel = 3, 4
	}
	if ins > wantIns || del > wantDel {
		t.Fatalf("4-key InsertBatch %.1f allocs, DeleteBatch %.1f; want at most %.0f and %.0f", ins, del, wantIns, wantDel)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after balanced batches", s.Len())
	}

	head, err := NewSharded(Options{MemoryBits: 1 << 20, ExpectedItems: 10000, Seed: 4}, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChain(errors.New("absent"), s, head)
	var sc BatchScratch
	for name, churn := range map[string]func(){
		"Sharded": func() {
			if err := s.InsertBatchInto(keys, &sc); err != nil {
				t.Fatal(err)
			}
			if ok, err := s.DeleteBatchInto(keys, &sc); err != nil || slices.Contains(ok, false) {
				t.Fatalf("DeleteBatchInto: %v %v", ok, err)
			}
		},
		"Chain": func() {
			if err := s.InsertBatchInto(keys, &sc); err != nil { // the older generation
				t.Fatal(err)
			}
			if ok, err := c.DeleteBatchInto(keys, &sc); err != nil || slices.Contains(ok, false) {
				t.Fatalf("Chain.DeleteBatchInto: %v %v", ok, err)
			}
		},
	} {
		churn() // warm up the scratch
		if avg := testing.AllocsPerRun(100, churn); avg != 0 {
			t.Errorf("%s: 4-key InsertBatchInto+DeleteBatchInto with warm scratch: %.1f allocs/op, want 0", name, avg)
		}
	}
	if s.Len() != 0 || head.Len() != 0 {
		t.Fatalf("Len = %d, %d after balanced batches", s.Len(), head.Len())
	}
}
