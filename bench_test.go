package mpcbf

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (go test -bench .). Each BenchmarkFigN/BenchmarkTableN prints
// its table once (stdout) and times a full regeneration; the scale defaults
// to 5% of the paper's workload sizes and can be raised with
// MPEXP_SCALE=1.0 for a full reproduction.
//
// Micro-benchmarks (BenchmarkOps*) time individual operations of every
// structure, and BenchmarkAblation* quantify the design choices DESIGN.md
// calls out.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hcbf"
	"repro/internal/sim"
)

func benchScale() float64 {
	if s := os.Getenv("MPEXP_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.05
}

var printedTables sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := sim.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := sim.Options{Scale: benchScale(), Seed: 1}
	var table *sim.Table
	for i := 0; i < b.N; i++ {
		t, err := r.Run(opts)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		table = t
	}
	if _, done := printedTables.LoadOrStore(id, true); !done && table != nil {
		table.Render(os.Stdout)
	}
}

func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7a(b *testing.B)  { benchExperiment(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)  { benchExperiment(b, "fig7b") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "tab1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "tab2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "tab3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "tab4") }
func BenchmarkExt1(b *testing.B)   { benchExperiment(b, "ext1") }
func BenchmarkExt2(b *testing.B)   { benchExperiment(b, "ext2") }
func BenchmarkExt3(b *testing.B)   { benchExperiment(b, "ext3") }
func BenchmarkExt4(b *testing.B)   { benchExperiment(b, "ext4") }

// --- per-operation micro-benchmarks -------------------------------------

const (
	microMem = 8 << 20
	microN   = 100000
)

func microKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
	}
	return keys
}

func benchInsertDelete(b *testing.B, f CountingFilter) {
	b.Helper()
	keys := microKeys(microN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if err := f.Insert(k); err != nil {
			b.Fatal(err)
		}
		if err := f.Delete(k); err != nil {
			b.Fatal(err)
		}
	}
}

func benchQuery(b *testing.B, f CountingFilter, hitRatio float64) {
	b.Helper()
	keys := microKeys(microN)
	inserted := int(float64(len(keys)) * hitRatio)
	for _, k := range keys[:inserted] {
		if err := f.Insert(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		if f.Contains(keys[i%len(keys)]) {
			sink++
		}
	}
	_ = sink
}

func BenchmarkOpsMPCBF1InsertDelete(b *testing.B) {
	f, _ := New(Options{MemoryBits: microMem, ExpectedItems: microN})
	benchInsertDelete(b, f)
}

func BenchmarkOpsMPCBF2InsertDelete(b *testing.B) {
	f, _ := New(Options{MemoryBits: microMem, ExpectedItems: microN, MemoryAccesses: 2})
	benchInsertDelete(b, f)
}

func BenchmarkOpsCBFInsertDelete(b *testing.B) {
	f, _ := NewCBF(Options{MemoryBits: microMem})
	benchInsertDelete(b, f)
}

func BenchmarkOpsPCBF1InsertDelete(b *testing.B) {
	f, _ := NewPCBF(Options{MemoryBits: microMem})
	benchInsertDelete(b, f)
}

func BenchmarkOpsMPCBF1Query(b *testing.B) {
	f, _ := New(Options{MemoryBits: microMem, ExpectedItems: microN})
	benchQuery(b, f, 0.8)
}

func BenchmarkOpsMPCBF2Query(b *testing.B) {
	f, _ := New(Options{MemoryBits: microMem, ExpectedItems: microN, MemoryAccesses: 2})
	benchQuery(b, f, 0.8)
}

func BenchmarkOpsCBFQuery(b *testing.B) {
	f, _ := NewCBF(Options{MemoryBits: microMem})
	benchQuery(b, f, 0.8)
}

func BenchmarkOpsPCBF1Query(b *testing.B) {
	f, _ := NewPCBF(Options{MemoryBits: microMem})
	benchQuery(b, f, 0.8)
}

func BenchmarkOpsPCBF2Query(b *testing.B) {
	f, _ := NewPCBF(Options{MemoryBits: microMem, MemoryAccesses: 2})
	benchQuery(b, f, 0.8)
}

func BenchmarkOpsBloomQuery(b *testing.B) {
	f, _ := NewBloom(Options{MemoryBits: microMem})
	keys := microKeys(microN)
	for _, k := range keys[:microN*8/10] {
		f.Insert(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		if f.Contains(keys[i%len(keys)]) {
			sink++
		}
	}
	_ = sink
}

// --- word engine ---------------------------------------------------------

func BenchmarkHCBFWordInc(b *testing.B) {
	arena := bitvec.New(64)
	w, err := hcbf.NewWord(arena, 0, 64, 43)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % 43
		if _, err := w.Inc(slot); err != nil {
			b.StopTimer()
			// Word full: unwind and continue.
			for s := 0; s < 43; s++ {
				for w.Has(s) {
					w.Dec(s)
				}
			}
			b.StartTimer()
			w.Inc(slot)
		}
	}
}

func BenchmarkHCBFWordCount(b *testing.B) {
	arena := bitvec.New(64)
	w, _ := hcbf.NewWord(arena, 0, 64, 43)
	for s := 0; s < 21; s++ {
		w.Inc(s % 43)
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += w.Count(i % 43)
	}
	_ = sink
}

// --- word kernel ---------------------------------------------------------
//
// BenchmarkKernel*/BenchmarkGeneric* pairs measure the register-resident
// word kernel against the generic arena path on identical geometry (the
// default w=64, k=3, g=1). `make bench-json` runs them and records the
// ns/op pairs in BENCH_kernel.json.

// kernelMicroFilter builds the default micro-benchmark geometry directly on
// the core filter, with the kernel on or off.
func kernelMicroFilter(b *testing.B, disable bool) *core.Filter {
	b.Helper()
	f, err := core.New(core.Config{
		MemoryBits:    microMem,
		ExpectedN:     microN,
		W:             64,
		K:             3,
		G:             1,
		Overflow:      core.OverflowSaturate,
		DisableKernel: disable,
	})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func benchCoreInsertDelete(b *testing.B, f *core.Filter) {
	b.Helper()
	keys := microKeys(microN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if err := f.Insert(k); err != nil {
			b.Fatal(err)
		}
		if err := f.Delete(k); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCoreContains(b *testing.B, f *core.Filter) {
	b.Helper()
	keys := microKeys(microN)
	for _, k := range keys[:microN*8/10] {
		if err := f.Insert(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		if f.Contains(keys[i%len(keys)]) {
			sink++
		}
	}
	_ = sink
}

func BenchmarkKernelInsertDelete(b *testing.B)  { benchCoreInsertDelete(b, kernelMicroFilter(b, false)) }
func BenchmarkGenericInsertDelete(b *testing.B) { benchCoreInsertDelete(b, kernelMicroFilter(b, true)) }
func BenchmarkKernelContains(b *testing.B)      { benchCoreContains(b, kernelMicroFilter(b, false)) }
func BenchmarkGenericContains(b *testing.B)     { benchCoreContains(b, kernelMicroFilter(b, true)) }

// benchWordIncDec cycles one word through increment/decrement pairs so the
// hierarchy stays populated and both directions are timed.
func benchWordIncDec(b *testing.B, w hcbf.Word) {
	b.Helper()
	const b1 = 43
	for s := 0; s < 18; s++ {
		if _, err := w.Inc(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % b1
		if _, err := w.Inc(slot); err != nil {
			b.Fatal(err)
		}
		if _, err := w.Dec(slot); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelWordIncDec(b *testing.B) {
	arena := bitvec.New(64)
	w, err := hcbf.NewWord(arena, 0, 64, 43)
	if err != nil {
		b.Fatal(err)
	}
	if !w.Kernel() {
		b.Fatal("expected kernel dispatch")
	}
	benchWordIncDec(b, w)
}

func BenchmarkGenericWordIncDec(b *testing.B) {
	arena := bitvec.New(64)
	w, err := hcbf.NewWordGeneric(arena, 0, 64, 43)
	if err != nil {
		b.Fatal(err)
	}
	benchWordIncDec(b, w)
}

func benchWordCount(b *testing.B, w hcbf.Word) {
	b.Helper()
	for s := 0; s < 21; s++ {
		w.Inc(s % 43)
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += w.Count(i % 43)
	}
	_ = sink
}

func BenchmarkKernelWordCount(b *testing.B) {
	arena := bitvec.New(64)
	w, _ := hcbf.NewWord(arena, 0, 64, 43)
	benchWordCount(b, w)
}

func BenchmarkGenericWordCount(b *testing.B) {
	arena := bitvec.New(64)
	w, _ := hcbf.NewWordGeneric(arena, 0, 64, 43)
	benchWordCount(b, w)
}

// sinkU64 keeps register-resident benchmark results observable.
var sinkU64 uint64

// BenchmarkKernelRawIncDec times the kernel the way the core uses it: the
// word is loaded into a register once and increment/decrement pairs run
// register-to-register with no arena traffic. Compare against
// BenchmarkGenericWordIncDec, the per-bit arena walk doing the same work.
func BenchmarkKernelRawIncDec(b *testing.B) {
	const b1 = 43
	x := uint64(0)
	for s := 0; s < 18; s++ {
		x, _ = hcbf.Inc64(x, b1, s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % b1
		x, _ = hcbf.Inc64(x, b1, slot)
		x, _, _ = hcbf.Dec64(x, b1, slot)
	}
	sinkU64 = x
}

// BenchmarkKernelRawCount times register-resident counter readout.
func BenchmarkKernelRawCount(b *testing.B) {
	const b1 = 43
	x := uint64(0)
	for s := 0; s < 21; s++ {
		x, _ = hcbf.Inc64(x, b1, s%b1)
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += hcbf.Count64(x, b1, i%b1)
	}
	sinkU64 = uint64(sink)
}

// --- concurrency ---------------------------------------------------------

func BenchmarkShardedBatchInsert(b *testing.B) {
	keys := microKeys(microN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewSharded(Options{MemoryBits: microMem, ExpectedItems: microN}, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.InsertBatch(keys, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedBatchQuery(b *testing.B) {
	keys := microKeys(microN)
	s, err := NewSharded(Options{MemoryBits: microMem, ExpectedItems: microN}, 8)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.InsertBatch(keys[:microN*8/10], 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ContainsBatch(keys[:10000], 0)
	}
}

// BenchmarkShardedBatchInsertDelete4 is ingest's batch shape: a 4-key
// InsertBatch and DeleteBatch pair on 16 shards.
func BenchmarkShardedBatchInsertDelete4(b *testing.B) {
	keys := microKeys(microN)
	s, err := NewSharded(Options{MemoryBits: microMem, ExpectedItems: microN}, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := 4 * (i % (microN / 4))
		batch := keys[lo : lo+4]
		if err := s.InsertBatch(batch, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := s.DeleteBatch(batch, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Beyond L3: lookup's geometry, a 2^30-bit (128 MiB) filter over 16
// shards loaded with 2^24 keys. Almost every word access misses the
// caches here, which the 8 MiB benchmarks above never do, so these
// measure what batches gain by overlapping their misses. Each reports
// ns/key timed around the filter calls alone (key generation excluded)
// and is skipped under -short.
const (
	beyondL3Mem    = 1 << 30
	beyondL3Keys   = 1 << 24
	beyondL3Shards = 16
	beyondL3Chunk  = 1 << 16 // keys per InsertBatch, as perfbench's preload
	beyondL3Batch  = 256     // keys per ContainsBatchInto, as lookup's
)

func newBeyondL3(b *testing.B) (*Sharded, *dataset.Keyspace) {
	if testing.Short() {
		b.Skip("128 MiB filter and 2^24 keys")
	}
	s, err := NewSharded(Options{MemoryBits: beyondL3Mem, ExpectedItems: beyondL3Keys, Seed: 1}, beyondL3Shards)
	if err != nil {
		b.Fatal(err)
	}
	ks, err := dataset.NewKeyspace(dataset.KeyspaceConfig{N: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return s, ks
}

// chunksBeyondL3 hands ranks [0, beyondL3Keys) of ks to apply in
// beyondL3Chunk-key batches and returns the time spent inside apply.
func chunksBeyondL3(ks *dataset.Keyspace, apply func(keys [][]byte)) time.Duration {
	arena := make([]byte, 0, beyondL3Chunk*32)
	keys := make([][]byte, 0, beyondL3Chunk)
	var in time.Duration
	for lo := 0; lo < beyondL3Keys; lo += beyondL3Chunk {
		arena, keys = arena[:0], keys[:0]
		for r := lo; r < lo+beyondL3Chunk; r++ {
			start := len(arena)
			arena = ks.AppendKey(arena, r)
			keys = append(keys, arena[start:len(arena):len(arena)])
		}
		t0 := time.Now()
		apply(keys)
		in += time.Since(t0)
	}
	return in
}

// loadBeyondL3 inserts ranks [0, beyondL3Keys) of ks into s and returns
// the time spent inside InsertBatch.
func loadBeyondL3(b *testing.B, s *Sharded, ks *dataset.Keyspace) time.Duration {
	return chunksBeyondL3(ks, func(keys [][]byte) {
		if err := s.InsertBatch(keys, runtime.GOMAXPROCS(0)); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkShardedBatchInsertBeyondL3(b *testing.B) {
	var in time.Duration
	for i := 0; i < b.N; i++ {
		s, ks := newBeyondL3(b)
		in += loadBeyondL3(b, s, ks)
	}
	b.ReportMetric(float64(in.Nanoseconds())/float64(b.N)/beyondL3Keys, "ns/key")
}

// BenchmarkShardedBatchDeleteBeyondL3 deletes every loaded key again, in
// the load's batches and order.
func BenchmarkShardedBatchDeleteBeyondL3(b *testing.B) {
	var in time.Duration
	for i := 0; i < b.N; i++ {
		s, ks := newBeyondL3(b)
		loadBeyondL3(b, s, ks)
		in += chunksBeyondL3(ks, func(keys [][]byte) {
			if _, err := s.DeleteBatch(keys, runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		})
		if s.Len() != 0 {
			b.Fatalf("Len = %d after deleting every key", s.Len())
		}
	}
	b.ReportMetric(float64(in.Nanoseconds())/float64(b.N)/beyondL3Keys, "ns/key")
}

func BenchmarkShardedBatchQueryBeyondL3(b *testing.B) {
	s, ks := newBeyondL3(b)
	loadBeyondL3(b, s, ks)
	// Random ranks, half inserted and half never, drawn afresh for every
	// batch so that no probe pool settles into the caches.
	rng := rand.New(rand.NewSource(1))
	arena := make([]byte, 0, beyondL3Batch*32)
	keys := make([][]byte, beyondL3Batch)
	var sc BatchScratch
	var in time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena = arena[:0]
		for j := range keys {
			r := rng.Intn(beyondL3Keys)
			if j%2 == 1 {
				r += beyondL3Keys
			}
			start := len(arena)
			arena = ks.AppendKey(arena, r)
			keys[j] = arena[start:len(arena):len(arena)]
		}
		t0 := time.Now()
		got := s.ContainsBatchInto(keys, &sc)
		in += time.Since(t0)
		for j := 0; j < len(got); j += 2 {
			if !got[j] {
				b.Fatalf("false negative for %q", keys[j])
			}
		}
	}
	b.ReportMetric(float64(in.Nanoseconds())/float64(b.N)/beyondL3Batch, "ns/key")
}

// BenchmarkShardedMarshalBeyondL3 times MarshalBinary at lookup's
// geometry: the encode every snapshot runs under the store's mutation
// lock, so it must stay one allocation of the encoding's size.
func BenchmarkShardedMarshalBeyondL3(b *testing.B) {
	s, ks := newBeyondL3(b)
	loadBeyondL3(b, s, ks)
	b.ReportAllocs()
	b.SetBytes(int64(s.MarshaledSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedUnmarshalBeyondL3 times UnmarshalSharded at lookup's
// geometry: the decode a daemon start and a replica bootstrap run. With
// 2^24 keys every page holds a non-zero word, so this is the dense case
// of snapio.Reader.Words, which tests a page for zeros before copying it.
func BenchmarkShardedUnmarshalBeyondL3(b *testing.B) {
	data := func() []byte {
		s, ks := newBeyondL3(b)
		loadBeyondL3(b, s, ks)
		data, err := s.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		return data
	}()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalSharded(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedDecodeIntoReleased times what a namespace recovery
// does to a victim of its geometry: release a 1 MiB filter's arenas
// (Arenas.Put, which gives their pages back to the kernel) and decode
// the next filter into them. A sparse filter (64 keys) writes a few
// pages back; a dense one (2^16 keys) faults every page back in.
func BenchmarkShardedDecodeIntoReleased(b *testing.B) {
	for _, keys := range []int{64, 1 << 16} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			src, err := NewSharded(Options{MemoryBits: 1 << 23, ExpectedItems: 1 << 16, Seed: 3}, 4)
			if err != nil {
				b.Fatal(err)
			}
			if err := src.InsertBatch(microKeys(keys), 0); err != nil {
				b.Fatal(err)
			}
			data, err := src.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			s := src
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var a Arenas
				s.ReleaseArenas(a.Put)
				if s, err = ReadShardedReusing(bytes.NewReader(data), int64(len(data)), &a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkShardedScalarQueryParallel(b *testing.B) {
	keys := microKeys(microN)
	s, err := NewSharded(Options{MemoryBits: microMem, ExpectedItems: microN}, 16)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys[:microN*8/10] {
		if err := s.Insert(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Contains(keys[i%len(keys)])
			i++
		}
	})
}

// --- ablations -----------------------------------------------------------

// measureFPR inserts n keys and probes fresh keys.
func measureFPR(b *testing.B, f interface {
	Insert([]byte) error
	Contains([]byte) bool
}, n, probes int) float64 {
	b.Helper()
	for i := 0; i < n; i++ {
		if err := f.Insert([]byte(fmt.Sprintf("in-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	fp := 0
	for i := 0; i < probes; i++ {
		if f.Contains([]byte(fmt.Sprintf("out-%d", i))) {
			fp++
		}
	}
	return float64(fp) / float64(probes)
}

var ablationOnce sync.Map

func ablationPrint(b *testing.B, key, format string, args ...any) {
	if _, done := ablationOnce.LoadOrStore(key, true); !done {
		fmt.Printf("ablation %s: %s\n", key, fmt.Sprintf(format, args...))
	}
	_ = b
}

// BenchmarkAblationImprovedHCBF quantifies the improved layout of Section
// III.B.3: the heuristic first level (b1 = w - k*nmax) against the basic
// HCBF's fixed half-word first level at the same memory.
func BenchmarkAblationImprovedHCBF(b *testing.B) {
	const mem, n, probes = 1 << 21, 20000, 100000
	for i := 0; i < b.N; i++ {
		improved, err := core.New(core.Config{MemoryBits: mem, ExpectedN: n, K: 3,
			Overflow: core.OverflowSaturate})
		if err != nil {
			b.Fatal(err)
		}
		basic, err := core.New(core.Config{MemoryBits: mem, B1: 32, K: 3,
			Overflow: core.OverflowSaturate})
		if err != nil {
			b.Fatal(err)
		}
		fImp := measureFPR(b, improved, n, probes)
		fBasic := measureFPR(b, basic, n, probes)
		if i == 0 {
			ablationPrint(b, "improved-hcbf",
				"improved b1=%d fpr=%.2e | basic b1=32 fpr=%.2e (improved should win)",
				improved.B1(), fImp, fBasic)
		}
	}
}

// BenchmarkAblationWordSize sweeps the word width at fixed memory: larger
// words widen the first level faster than they concentrate load.
func BenchmarkAblationWordSize(b *testing.B) {
	const mem, n, probes = 1 << 21, 20000, 100000
	for i := 0; i < b.N; i++ {
		line := ""
		for _, w := range []int{32, 64, 128, 256} {
			f, err := core.New(core.Config{MemoryBits: mem, ExpectedN: n, K: 3, W: w,
				Overflow: core.OverflowSaturate})
			if err != nil {
				b.Fatal(err)
			}
			line += fmt.Sprintf("w=%d fpr=%.2e  ", w, measureFPR(b, f, n, probes))
		}
		if i == 0 {
			ablationPrint(b, "word-size", "%s", line)
		}
	}
}

// BenchmarkAblationOverflowPolicy compares the strict and saturating
// overflow policies on a deliberately tight filter.
func BenchmarkAblationOverflowPolicy(b *testing.B) {
	const mem, n = 1 << 18, 20000 // ~13 bits per key: tight
	for i := 0; i < b.N; i++ {
		strict, err := core.New(core.Config{MemoryBits: mem, ExpectedN: n, K: 3})
		if err != nil {
			b.Fatal(err)
		}
		sat, err := core.New(core.Config{MemoryBits: mem, ExpectedN: n, K: 3,
			Overflow: core.OverflowSaturate})
		if err != nil {
			b.Fatal(err)
		}
		rejected := 0
		for j := 0; j < n; j++ {
			key := []byte(fmt.Sprintf("in-%d", j))
			if err := strict.Insert(key); err != nil {
				rejected++
			}
			if err := sat.Insert(key); err != nil {
				b.Fatal(err)
			}
		}
		if i == 0 {
			ablationPrint(b, "overflow-policy",
				"strict rejected %d of %d inserts; saturate froze %d of %d words",
				rejected, n, sat.SaturatedWords(), sat.L())
		}
	}
}

// BenchmarkAblationHashCount sweeps k at fixed geometry, showing the
// near-flat optimum of Fig. 9 empirically.
func BenchmarkAblationHashCount(b *testing.B) {
	const mem, n, probes = 1 << 21, 20000, 100000
	for i := 0; i < b.N; i++ {
		line := ""
		for _, k := range []int{2, 3, 4, 5, 6} {
			f, err := core.New(core.Config{MemoryBits: mem, ExpectedN: n, K: k,
				Overflow: core.OverflowSaturate})
			if err != nil {
				b.Fatal(err)
			}
			line += fmt.Sprintf("k=%d fpr=%.2e  ", k, measureFPR(b, f, n, probes))
		}
		if i == 0 {
			ablationPrint(b, "hash-count", "%s", line)
		}
	}
}
