package mpcbf

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// testChain returns a chain of n generations of 4 shards each, oldest
// first, whose absent error is errChainAbsent.
func testChain(t *testing.T, n int) *Chain {
	t.Helper()
	gens := make([]*Sharded, n)
	for i := range gens {
		s, err := NewSharded(Options{MemoryBits: 1 << 16, ExpectedItems: 500, Seed: uint32(20 + i)}, 4)
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = s
	}
	return NewChain(errChainAbsent, gens...)
}

var errChainAbsent = errors.New("test: delete of absent key")

// TestChainContainsBatchInto checks a chain read against the OR of scalar
// probes over batches resolved by the newest generation, by an older
// one, or by none, sharing one scratch; the scratch keeps no key
// references and, warmed up, makes the call allocation-free.
func TestChainContainsBatchInto(t *testing.T) {
	c := testChain(t, 3)
	var probe [][]byte
	c.View(func(gens []*Sharded) {
		for i, s := range gens {
			in := apiKeys(fmt.Sprintf("chain-%d", i), 500)
			if err := s.InsertBatch(in, 0); err != nil {
				t.Fatal(err)
			}
			probe = append(probe, in[:100]...)
		}
	})
	probe = append(probe, apiKeys("chain-absent", 100)...)
	var sc BatchScratch
	for _, n := range []int{len(probe), 0, 150, len(probe)} {
		batch := probe[len(probe)-n:]
		got := c.ContainsBatchInto(batch, &sc)
		if len(got) != n {
			t.Fatalf("batch %d: %d answers", n, len(got))
		}
		for i, k := range batch {
			if want := c.Contains(k); got[i] != want {
				t.Fatalf("batch %d: answer %d = %v, want %v", n, i, got[i], want)
			}
			if len(probe)-n+i < 300 && !got[i] {
				t.Fatalf("batch %d: false negative at %d", n, i)
			}
		}
		for _, k := range sc.sub[:cap(sc.sub)] {
			if k != nil {
				t.Fatal("scratch still references a key")
			}
		}
	}
	if avg := testing.AllocsPerRun(50, func() { c.ContainsBatchInto(probe, &sc) }); avg != 0 {
		t.Fatalf("ContainsBatchInto with warm scratch: %.1f allocs/op, want 0", avg)
	}
	var empty Chain
	if got := empty.ContainsBatchInto(probe, &sc); len(got) != len(probe) || slices.Contains(got, true) {
		t.Fatal("the zero Chain reports a key present")
	}
}

// TestChainDeleteFallsThrough pins the delete rule: a key goes from the
// newest generation that can delete it, then from older ones, and a key
// no generation holds returns the chain's absent error, per key and in
// batches alike.
func TestChainDeleteFallsThrough(t *testing.T) {
	for _, batch := range []bool{false, true} {
		c := testChain(t, 3)
		k := []byte("twice")
		var oldest, newest *Sharded
		c.View(func(gens []*Sharded) { oldest, newest = gens[0], gens[2] })
		if err := oldest.Insert(k); err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(k); err != nil {
			t.Fatal(err)
		}
		del := func() error { return c.Delete(k) }
		if batch {
			del = func() error {
				ok, err := c.DeleteBatch([][]byte{k}, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !ok[0] {
					return errChainAbsent
				}
				return nil
			}
		}
		for i, want := range []struct{ oldest, newest int }{{1, 0}, {0, 0}} {
			if err := del(); err != nil {
				t.Fatalf("batch=%v: delete %d: %v", batch, i, err)
			}
			if oldest.Len() != want.oldest || newest.Len() != want.newest {
				t.Fatalf("batch=%v: after delete %d: oldest holds %d, newest %d; want %d and %d",
					batch, i, oldest.Len(), newest.Len(), want.oldest, want.newest)
			}
		}
		if err := del(); !errors.Is(err, errChainAbsent) {
			t.Fatalf("batch=%v: delete of a key no generation holds: %v", batch, err)
		}
	}
}
