package ns

import (
	"bytes"
	"testing"
	"time"

	mpcbf "repro"
)

// TestReadStateReturnsUntypedNil requires a decode that fails to return
// an untyped nil Filter: a nil *window.Filter inside a non-nil interface
// would pass every != nil test and panic on first use. Each mode's empty
// state is built by NewFilter; a check of its whole encoding succeeds,
// and a decode returns that mode again.
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
				got, err := DecodeState(bytes.NewReader(b[:cut]), cut, nil)
				if err == nil {
					t.Fatalf("decode of %d of %d bytes succeeded", cut, n)
				}
				if got != nil {
					t.Fatalf("decode of %d of %d bytes returned %T with %v, want nil", cut, n, got, err)
				}
			}
			if _, err := DecodeState(bytes.NewReader(b), n, &mpcbf.Arenas{Check: true}); err != nil {
				t.Fatalf("check of a valid state: %v", err)
			}
			got, err := DecodeState(bytes.NewReader(b), n, nil)
			if err != nil || ModeOf(got) != want || got.Len() != 1 {
				t.Fatalf("decode of a valid state returned (%T, %v)", got, err)
			}
		})
	}
	if _, err := (Spec{Filter: geom, Window: time.Hour, Elastic: true}).Mode(); err == nil {
		t.Fatal("Spec.Mode accepted an elastic window")
	}
}
