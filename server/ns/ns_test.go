package ns

import (
	"bytes"
	"testing"
	"time"

	mpcbf "repro"
)

// TestReadStateReturnsUntypedNil requires a decode that fails, and a
// check of any state, to return an untyped nil Filter: a nil
// *window.Filter inside a non-nil interface would pass every != nil test
// and panic on first use. Each mode's empty state is built by NewFilter,
// and a decode of its whole encoding returns that mode again.
func TestReadStateReturnsUntypedNil(t *testing.T) {
	geom := mpcbf.Options{MemoryBits: 1 << 12, ExpectedItems: 100, Seed: 7}
	for _, sp := range []Spec{
		{Filter: geom, Shards: 2},
		{Filter: geom, Shards: 2, Window: time.Hour, Generations: 3},
		{Filter: geom, Shards: 2, Elastic: true},
	} {
		want, err := sp.Mode()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(want.String(), func(t *testing.T) {
			f, err := NewFilter(sp)
			if err != nil {
				t.Fatal(err)
			}
			if got := ModeOf(f); got != want {
				t.Fatalf("NewFilter built a %v state", got)
			}
			if err := f.Insert([]byte("k")); err != nil {
				t.Fatal(err)
			}
			b, err := f.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			n := int64(len(b))
			for _, cut := range []int64{n - 1, n / 2, 8} {
				got, err := readState(bytes.NewReader(b[:cut]), cut, false, nil)
				if err == nil {
					t.Fatalf("decode of %d of %d bytes succeeded", cut, n)
				}
				if got != nil {
					t.Fatalf("decode of %d of %d bytes returned %T with %v, want nil", cut, n, got, err)
				}
			}
			got, err := readState(bytes.NewReader(b), n, true, nil)
			if err != nil || got != nil {
				t.Fatalf("check of a valid state returned (%T, %v), want (nil, nil)", got, err)
			}
			got, err = DecodeState(bytes.NewReader(b), n)
			if err != nil || ModeOf(got) != want || got.Len() != 1 {
				t.Fatalf("decode of a valid state returned (%T, %v)", got, err)
			}
		})
	}
	if _, err := (Spec{Filter: geom, Window: time.Hour, Elastic: true}).Mode(); err == nil {
		t.Fatal("Spec.Mode accepted an elastic window")
	}
}
