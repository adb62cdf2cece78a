package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// twinFilters builds two filters with identical geometry and seed, one on
// the register-resident kernel and one forced onto the generic arena path.
func twinFilters(t *testing.T, cfg Config) (kernel, generic *Filter) {
	t.Helper()
	k, err := New(cfg)
	if err != nil {
		t.Fatalf("kernel filter: %v", err)
	}
	gcfg := cfg
	gcfg.DisableKernel = true
	g, err := New(gcfg)
	if err != nil {
		t.Fatalf("generic filter: %v", err)
	}
	return k, g
}

// checkTwins asserts the two filters are observably identical: same arena
// bits, same element count, same overflow statistics.
func checkTwins(t *testing.T, step string, k, g *Filter) {
	t.Helper()
	if !k.arena.Equal(g.arena) {
		t.Fatalf("%s: kernel and generic arenas diverge", step)
	}
	if k.count != g.count {
		t.Fatalf("%s: count %d vs %d", step, k.count, g.count)
	}
	if k.overflows != g.overflows {
		t.Fatalf("%s: overflows %d vs %d", step, k.overflows, g.overflows)
	}
	if len(k.saturated) != len(g.saturated) {
		t.Fatalf("%s: saturated words %d vs %d", step, len(k.saturated), len(g.saturated))
	}
}

// TestKernelVsGenericDifferential replays long random insert/delete/query
// sequences on kernel and generic filters across the kernel geometries
// (w=64 and w=128, g=1 and g=2) and requires bit-for-bit agreement.
func TestKernelVsGenericDifferential(t *testing.T) {
	configs := []Config{
		{MemoryBits: 1 << 14, ExpectedN: 200, W: 64, K: 3, G: 1, Seed: 11, Overflow: OverflowSaturate},
		{MemoryBits: 1 << 14, ExpectedN: 200, W: 64, K: 4, G: 2, Seed: 12, Overflow: OverflowSaturate},
		{MemoryBits: 1 << 14, ExpectedN: 200, W: 128, K: 3, G: 1, Seed: 13, Overflow: OverflowSaturate},
		{MemoryBits: 1 << 12, B1: 40, W: 64, K: 3, G: 1, Seed: 14, Overflow: OverflowFail},
	}
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("cfg%d_w%d_g%d", ci, cfg.W, cfg.G), func(t *testing.T) {
			k, g := twinFilters(t, cfg)
			if k.kmode == kmodeGeneric {
				t.Fatalf("config did not take the kernel")
			}
			rng := rand.New(rand.NewSource(int64(ci)))
			live := make(map[int]int)
			phantomDeletes := 0
			for step := 0; step < 3000; step++ {
				id := rng.Intn(300)
				key := []byte(fmt.Sprintf("key-%03d", id))
				switch rng.Intn(3) {
				case 0:
					kerr := k.Insert(key)
					gerr := g.Insert(key)
					if (kerr == nil) != (gerr == nil) {
						t.Fatalf("step %d: Insert errs %v vs %v", step, kerr, gerr)
					}
					if kerr == nil {
						live[id]++
					}
				case 1:
					kerr := k.Delete(key)
					gerr := g.Delete(key)
					if (kerr == nil) != (gerr == nil) {
						t.Fatalf("step %d: Delete errs %v vs %v", step, kerr, gerr)
					}
					if kerr == nil {
						if live[id] > 0 {
							live[id]--
						} else {
							// Collision delete: the key's slots were all held
							// up by other elements, so this stole their bits.
							phantomDeletes++
						}
					}
				case 2:
					if k.Contains(key) != g.Contains(key) {
						t.Fatalf("step %d: Contains(%s) diverges", step, key)
					}
					if k.CountOf(key) != g.CountOf(key) {
						t.Fatalf("step %d: CountOf(%s) diverges", step, key)
					}
				}
				checkTwins(t, fmt.Sprintf("step %d", step), k, g)
			}
			// No false negatives on either path for everything still live —
			// valid only if no collision delete stole bits from live keys
			// (standard counting-filter caveat).
			if phantomDeletes > 0 {
				return
			}
			for id, n := range live {
				if n <= 0 {
					continue
				}
				key := []byte(fmt.Sprintf("key-%03d", id))
				if !k.Contains(key) || !g.Contains(key) {
					t.Fatalf("false negative for %s (count %d)", key, n)
				}
			}
		})
	}
}

// TestDeleteAbsentKeyKeepsCount is the regression test for the count-drift
// bug: a failed delete (underflow on some slot) must not decrement the
// element count, on either dispatch path.
func TestDeleteAbsentKeyKeepsCount(t *testing.T) {
	for _, disable := range []bool{false, true} {
		f, err := New(Config{MemoryBits: 1 << 12, B1: 40, W: 64, K: 3, Seed: 5,
			Overflow: OverflowSaturate, DisableKernel: disable})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := f.Insert([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if f.Count() != 8 {
			t.Fatalf("count = %d after 8 inserts", f.Count())
		}
		// Deleting keys that were never inserted must fail and leave the
		// count alone, no matter how often it is retried.
		for i := 0; i < 50; i++ {
			if err := f.Delete([]byte(fmt.Sprintf("absent-%d", i))); err == nil {
				// A full k-slot collision with live keys can legitimately
				// delete; with 8 keys in 2^12 bits it does not happen.
				t.Fatalf("delete of absent key %d unexpectedly succeeded", i)
			}
		}
		if f.Count() != 8 {
			t.Fatalf("disable=%v: count drifted to %d after failed deletes, want 8",
				disable, f.Count())
		}
	}
}

// TestFailedDeleteWritesNothing requires a delete that fails to leave
// the filter's bytes as they were, on every path: the register kernel,
// g=2, w=128, the generic arena, DeleteStats, and DeletePlans. The
// filters are dense enough that absent keys share words, and slots,
// with live ones.
func TestFailedDeleteWritesNothing(t *testing.T) {
	for _, cfg := range []Config{
		{MemoryBits: 1 << 10, B1: 40, W: 64, K: 3},
		{MemoryBits: 1 << 10, B1: 24, W: 64, K: 4, G: 2},
		{MemoryBits: 1 << 11, B1: 80, W: 128, K: 3},
		{MemoryBits: 1 << 10, B1: 40, W: 64, K: 3, DisableKernel: true},
	} {
		f := mustNew(t, cfg)
		for _, k := range keys("live", 32) {
			if err := f.Insert(k); err != nil {
				t.Fatal(err)
			}
		}
		deletes := []struct {
			name string
			del  func(k []byte) bool
		}{
			{"Delete", func(k []byte) bool { return f.Delete(k) == nil }},
			{"DeleteStats", func(k []byte) bool { _, err := f.DeleteStats(k); return err == nil }},
			{"DeletePlans", func(k []byte) bool {
				return f.DeletePlans([]Plan{f.Plan(k, 0)}, [][]byte{k}, make([]bool, 1)) == 1
			}},
		}
		failed := 0
		for _, d := range deletes {
			for _, k := range keys("absent-"+d.name, 64) {
				before, _ := f.MarshalBinary()
				if d.del(k) {
					continue // a false positive deletes; that is allowed
				}
				failed++
				if after, _ := f.MarshalBinary(); !bytes.Equal(before, after) {
					t.Fatalf("%+v: failed %s of %q changed the filter", cfg, d.name, k)
				}
			}
		}
		if failed == 0 {
			t.Fatalf("%+v: no delete failed", cfg)
		}
	}
}

// TestContainsBatch checks order preservation, dst reuse, and agreement with
// the scalar query.
func TestContainsBatch(t *testing.T) {
	f, err := New(Config{MemoryBits: 1 << 13, ExpectedN: 50, W: 64, K: 3, Seed: 9,
		Overflow: OverflowSaturate})
	if err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	for i := 0; i < 60; i++ {
		keys = append(keys, []byte(fmt.Sprintf("batch-%02d", i)))
	}
	for i := 0; i < 30; i++ {
		if err := f.Insert(keys[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := f.ContainsBatch(keys, nil)
	if len(got) != len(keys) {
		t.Fatalf("len = %d, want %d", len(got), len(keys))
	}
	for i, k := range keys {
		if got[i] != f.Contains(k) {
			t.Fatalf("batch[%d] = %v disagrees with Contains", i, got[i])
		}
	}
	// A reused dst of sufficient capacity must be written in place.
	dst := make([]bool, 0, len(keys))
	got2 := f.ContainsBatch(keys, dst)
	if &got2[0] != &dst[:1][0] {
		t.Fatal("sufficient-capacity dst was reallocated")
	}
	for i := range got {
		if got[i] != got2[i] {
			t.Fatalf("reused-dst result diverges at %d", i)
		}
	}
}
