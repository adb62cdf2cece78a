package elastic

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	mpcbf "repro"
)

func testOptions() Options {
	return Options{
		Filter: mpcbf.Options{
			MemoryBits:    1 << 17, // 16 KiB
			ExpectedItems: 2000,
			Seed:          42,
		},
		Shards: 4,
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// fillAndGrow inserts n keys, growing whenever the chain asks — the
// same apply-then-check loop the server store runs.
func fillAndGrow(t *testing.T, f *Filter, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if err := f.Insert(key(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if f.NeedsGrow() {
			if err := f.Grow(); err != nil {
				t.Fatalf("grow at %d: %v", i, err)
			}
		}
	}
}

func TestInsertContainsAcrossGrowth(t *testing.T) {
	f, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000 // 5x seed capacity
	fillAndGrow(t, f, 0, n)
	if f.Generations() < 2 {
		t.Fatalf("expected growth, still %d generation(s)", f.Generations())
	}
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}
	for i := 0; i < n; i++ {
		if !f.Contains(key(i)) {
			t.Fatalf("key %d lost after growth", i)
		}
	}
}

func TestDeleteRoutesToOwningGeneration(t *testing.T) {
	f, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 6000
	fillAndGrow(t, f, 0, n)
	if f.Generations() < 2 {
		t.Fatal("test requires a grown chain")
	}
	// Delete keys that live in the sealed generation as well as the head.
	for i := 0; i < n; i += 3 {
		if err := f.Delete(key(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if got, want := f.Len(), n-n/3; got != want {
		t.Fatalf("Len after deletes = %d, want %d", got, want)
	}
	if err := f.Delete([]byte("never-inserted")); err == nil {
		t.Fatal("delete of absent key succeeded")
	}
}

func TestBatchOpsAcrossChain(t *testing.T) {
	f, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	for i := 0; i < 7000; i++ {
		keys = append(keys, key(i))
	}
	// Insert in batches, growing between them.
	for off := 0; off < len(keys); off += 500 {
		if err := f.InsertBatch(keys[off:off+500], 4); err != nil {
			t.Fatal(err)
		}
		for f.NeedsGrow() {
			if err := f.Grow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	probe := append([][]byte{[]byte("absent-a"), []byte("absent-b")}, keys...)
	flags := f.ContainsBatchInto(probe, nil)
	if flags[0] || flags[1] {
		// Statistically possible but with this geometry effectively never.
		t.Fatal("absent probe reported present")
	}
	for i, ok := range flags[2:] {
		if !ok {
			t.Fatalf("key %d missing from batch lookup", i)
		}
	}
	// The scratch path answers the same and, warmed up, allocates nothing.
	var sc mpcbf.BatchScratch
	if got := f.ContainsBatchInto(probe, &sc); !slices.Equal(got, flags) {
		t.Fatal("ContainsBatchInto with scratch diverges from fresh scratch")
	}
	if avg := testing.AllocsPerRun(20, func() { f.ContainsBatchInto(probe, &sc) }); avg != 0 {
		t.Fatalf("ContainsBatchInto with warm scratch: %.1f allocs/op, want 0", avg)
	}
	del, err := f.DeleteBatch(append([][]byte{[]byte("absent-a")}, keys[:100]...), 4)
	if err != nil {
		t.Fatal(err)
	}
	if del[0] {
		t.Fatal("absent key reported deleted")
	}
	for i, ok := range del[1:] {
		if !ok {
			t.Fatalf("key %d not deleted", i)
		}
	}
}

// TestDeleteDoesNotBlockReaders requires Delete and DeleteBatch to
// finish while a long reader holds the chain's read lock: deletes share
// that lock with readers, so one DELETE never stalls a chain's lookups.
func TestDeleteDoesNotBlockReaders(t *testing.T) {
	f, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillAndGrow(t, f, 0, 3000)
	held, release := make(chan struct{}), make(chan struct{})
	go f.View(func([]*mpcbf.Sharded) {
		close(held)
		<-release
	})
	<-held
	defer close(release)
	done := make(chan error, 1)
	go func() {
		err := f.Delete(key(1))
		if err == nil {
			_, err = f.DeleteBatch([][]byte{key(2), key(3)}, 0)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Delete and DeleteBatch waited for a reader to release the chain")
	}
}

// TestChainFPRUnderTargetAt8x is the pinned acceptance test: grow the
// chain 8x past its seed capacity and the measured false positive rate
// must stay under the configured chain target — the property a single
// fixed-size filter loses catastrophically at the same load.
func TestChainFPRUnderTargetAt8x(t *testing.T) {
	opts := testOptions()
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	n := opts.Filter.ExpectedItems * 8
	fillAndGrow(t, f, 0, n)
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}

	const probes = 200000
	rng := rand.New(rand.NewSource(7))
	fp := 0
	buf := make([]byte, 16)
	for i := 0; i < probes; i++ {
		rng.Read(buf)
		if f.Contains(buf) {
			fp++
		}
	}
	measured := float64(fp) / probes
	target := f.TargetFPR()
	t.Logf("8x growth: %d gens, measured FPR %.6f, target %.6f, analytic %.6f",
		f.Generations(), measured, target, f.ExpectedFPR())
	if measured > target {
		t.Fatalf("measured FPR %.6f exceeds chain target %.6f at 8x capacity", measured, target)
	}

	// Contrast: the same seed geometry without growth, at the same load,
	// must be far over target — otherwise this test proves nothing.
	static, err := mpcbf.NewSharded(opts.Filter, opts.Shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := static.Insert(key(i)); err != nil {
			t.Fatalf("static insert %d: %v", i, err)
		}
	}
	sfp := 0
	rng = rand.New(rand.NewSource(7))
	for i := 0; i < probes; i++ {
		rng.Read(buf)
		if static.Contains(buf) {
			sfp++
		}
	}
	staticFPR := float64(sfp) / probes
	t.Logf("static filter at 8x load: FPR %.6f", staticFPR)
	if staticFPR <= target {
		t.Fatalf("static filter FPR %.6f unexpectedly under target %.6f — test geometry too loose", staticFPR, target)
	}
}

func TestGrowthScheduleDeterministic(t *testing.T) {
	a, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same inserts + same explicit grow points → byte-identical chains.
	for i := 0; i < 9000; i++ {
		if err := a.Insert(key(i)); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert(key(i)); err != nil {
			t.Fatal(err)
		}
		if a.NeedsGrow() != b.NeedsGrow() {
			t.Fatalf("divergent NeedsGrow at %d", i)
		}
		if a.NeedsGrow() {
			if err := a.Grow(); err != nil {
				t.Fatal(err)
			}
			if err := b.Grow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("identical histories produced different snapshots")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillAndGrow(t, f, 0, 9000)

	// Splice in an imported generation to cover the reshard shape.
	imp, err := mpcbf.NewSharded(mpcbf.Options{MemoryBits: 1 << 14, ExpectedItems: 300, Seed: 99}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := imp.Insert([]byte(fmt.Sprintf("imp-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	f.ImportGeneration(imp)

	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !IsElastic(blob) {
		t.Fatal("IsElastic rejects own snapshot")
	}
	g, err := UnmarshalFilter(blob)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != f.Len() || g.Generations() != f.Generations() || g.Grows() != f.Grows() || g.Imports() != f.Imports() {
		t.Fatalf("shape mismatch after round trip: %+v vs %+v", g.Stats(), f.Stats())
	}
	for i := 0; i < 9000; i += 7 {
		if !g.Contains(key(i)) {
			t.Fatalf("key %d missing after round trip", i)
		}
	}
	if !g.Contains([]byte("imp-42")) {
		t.Fatal("imported generation key missing after round trip")
	}
	blob2, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-marshal not byte-identical")
	}

	// Post-round-trip growth must continue the original schedule.
	if err := g.Grow(); err != nil {
		t.Fatal(err)
	}
	if err := f.Grow(); err != nil {
		t.Fatal(err)
	}
	ab, _ := f.MarshalBinary()
	bb, _ := g.MarshalBinary()
	if !bytes.Equal(ab, bb) {
		t.Fatal("growth diverged after round trip")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	f, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillAndGrow(t, f, 0, 3000)
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     blob[:10],
		"truncated": blob[:len(blob)-5],
		"trailing":  append(append([]byte{}, blob...), 0xAB),
	}
	badMagic := append([]byte{}, blob...)
	badMagic[0] ^= 0xFF
	cases["magic"] = badMagic
	badVer := append([]byte{}, blob...)
	binary.LittleEndian.PutUint32(badVer[4:], 0xFFFF)
	cases["version"] = badVer
	// The growth schedule's header fields (growth factor, tightening
	// ratio, grow-at fill) must hold this build's constants.
	for name, off := range map[string]int{"growth factor": 41, "tightening ratio": 45, "grow at": 53} {
		bad := append([]byte{}, blob...)
		bad[off] ^= 0x01
		cases[name] = bad
	}
	for name, data := range cases {
		if _, err := UnmarshalFilter(data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
	if IsElastic(badMagic) {
		t.Error("IsElastic accepted wrong magic")
	}
}

func TestImportGenerationNeverInsertTarget(t *testing.T) {
	f, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	imp, err := mpcbf.NewSharded(mpcbf.Options{MemoryBits: 1 << 13, ExpectedItems: 100, Seed: 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := imp.Insert([]byte("moved")); err != nil {
		t.Fatal(err)
	}
	f.ImportGeneration(imp)
	st := f.Stats()
	if !st.Gens[len(st.Gens)-2].Imported || st.Gens[len(st.Gens)-1].Imported {
		t.Fatalf("imported generation not spliced below head: %+v", st.Gens)
	}
	if !f.Contains([]byte("moved")) {
		t.Fatal("imported key invisible")
	}
	before := imp.Len()
	if err := f.Insert([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if imp.Len() != before {
		t.Fatal("insert landed in imported generation")
	}
	// Deleting the moved key decrements the imported generation.
	if err := f.Delete([]byte("moved")); err != nil {
		t.Fatal(err)
	}
	if imp.Len() != before-1 {
		t.Fatal("delete did not route to imported generation")
	}
}

func TestEstimateCountSumsGenerations(t *testing.T) {
	f, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	k := []byte("hot-key")
	if err := f.Insert(k); err != nil {
		t.Fatal(err)
	}
	fillAndGrow(t, f, 0, 5000) // forces growth past the seed gen
	if f.Generations() < 2 {
		t.Fatal("chain did not grow")
	}
	if err := f.Insert(k); err != nil {
		t.Fatal(err)
	}
	if got := f.EstimateCount(k); got < 2 {
		t.Fatalf("EstimateCount = %d, want >= 2 across generations", got)
	}
}

func TestMaxGenerationsStopsGrowth(t *testing.T) {
	opts := testOptions()
	opts.MaxGenerations = 2
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	fillAndGrow(t, f, 0, 20000)
	if f.Generations() != 2 {
		t.Fatalf("generations = %d, want capped at 2", f.Generations())
	}
	if f.NeedsGrow() {
		t.Fatal("NeedsGrow past MaxGenerations")
	}
}

func TestResetRestoresSeedGeometry(t *testing.T) {
	f, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillAndGrow(t, f, 0, 9000)
	f.Reset()
	if f.Generations() != 1 || f.Len() != 0 || f.Grows() != 0 {
		t.Fatalf("reset left %d gens, %d items, %d grows", f.Generations(), f.Len(), f.Grows())
	}
	fresh, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.MarshalBinary()
	b, _ := fresh.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("reset chain differs from fresh chain")
	}
}

func TestTighteningBudgetsSumUnderTarget(t *testing.T) {
	f, err := New(Options{
		Filter: mpcbf.Options{MemoryBits: 1 << 13, ExpectedItems: 128, Seed: 1},
		Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := f.Grow(); err != nil {
			t.Fatal(err)
		}
	}
	sum := 0.0
	for _, g := range f.Stats().Gens {
		sum += g.Budget
	}
	if sum >= f.TargetFPR() {
		t.Fatalf("budget sum %.9f not under target %.9f", sum, f.TargetFPR())
	}
}

func TestConcurrentChainOps(t *testing.T) {
	f, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	fillAndGrow(t, f, 0, 4000)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 4000; i < 8000; i++ {
			_ = f.Insert(key(i))
			if f.NeedsGrow() {
				_ = f.Grow()
			}
		}
	}()
	for i := 0; i < 4000; i++ {
		if !f.Contains(key(i)) {
			t.Errorf("key %d lost during concurrent growth", i)
			break
		}
		if i%256 == 0 {
			_ = f.Stats()
		}
	}
	<-done
}
