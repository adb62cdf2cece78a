package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenFilters builds the filters whose encodings are pinned under
// testdata/golden: a saturating w=64 filter driven far past capacity (so
// the saturated-word list is non-empty) and a w=128, g=2 filter.
func goldenFilters(t *testing.T) map[string]*Filter {
	t.Helper()
	build := func(cfg Config, n int) *Filter {
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			key := []byte(fmt.Sprintf("golden-%d", i))
			if err := f.Insert(key); err != nil && err != ErrWordOverflow {
				t.Fatal(err)
			}
		}
		return f
	}
	return map[string]*Filter{
		"w64-saturated.bin": build(Config{MemoryBits: 1 << 12, ExpectedN: 40, Seed: 5, Overflow: OverflowSaturate}, 600),
		"w128-g2.bin":       build(Config{MemoryBits: 1 << 13, ExpectedN: 60, W: 128, K: 4, G: 2, Seed: 11}, 50),
	}
}

// TestMarshalGolden pins the encoder's output byte for byte: snapshot
// files, DUMP payloads and replica bootstraps all carry these bytes, so
// any change to them is a format change, not a refactor.
func TestMarshalGolden(t *testing.T) {
	for name, f := range goldenFilters(t) {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encoding drifted from the golden bytes (%d vs %d bytes)", name, len(got), len(want))
		}
		if len(got) != f.MarshaledSize() {
			t.Fatalf("%s: MarshaledSize %d, encoding %d bytes", name, f.MarshaledSize(), len(got))
		}
		back, err := Unmarshal(want)
		if err != nil {
			t.Fatalf("%s: golden bytes do not decode: %v", name, err)
		}
		again, _ := back.MarshalBinary()
		if !bytes.Equal(again, want) {
			t.Fatalf("%s: decode+encode of the golden bytes is not the identity", name)
		}
	}
}
