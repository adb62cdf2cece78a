package window

import (
	"fmt"
	"testing"
	"time"

	mpcbf "repro"
)

func benchWindow(b *testing.B, g int) *Filter {
	b.Helper()
	f, err := New(Options{
		Span:        time.Minute,
		Generations: g,
		Filter:      mpcbf.Options{MemoryBits: 1 << 22, ExpectedItems: 100_000},
		Shards:      8,
	})
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func benchWindowKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("window-bench-key-%08d", i))
	}
	return keys
}

// BenchmarkWindowContains measures the read path: a point query that
// ORs membership across G live generations, newest-first. Spread over
// generations so the probe doesn't always hit the head.
func BenchmarkWindowContains(b *testing.B) {
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("G=%d", g), func(b *testing.B) {
			f := benchWindow(b, g)
			keys := benchWindowKeys(50_000)
			per := len(keys) / g
			for gen := 0; gen < g; gen++ {
				if err := f.InsertBatch(keys[gen*per:(gen+1)*per], 0); err != nil {
					b.Fatal(err)
				}
				if gen != g-1 {
					f.Rotate()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !f.Contains(keys[i%len(keys)]) {
					b.Fatal("false negative in window")
				}
			}
		})
	}
}

// BenchmarkWindowRotate measures the O(1)-amortized retirement swap:
// reset of the tail generation's counters plus ring bookkeeping, on a
// loaded filter. This is the latency a serving rotation tick pays.
func BenchmarkWindowRotate(b *testing.B) {
	for _, g := range []int{4, 8} {
		b.Run(fmt.Sprintf("G=%d", g), func(b *testing.B) {
			f := benchWindow(b, g)
			keys := benchWindowKeys(20_000)
			if err := f.InsertBatch(keys, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Rotate()
			}
		})
	}
}
