package window

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	mpcbf "repro"
)

func testOptions(g int) Options {
	return Options{
		Span:        time.Second,
		Generations: g,
		Filter:      mpcbf.Options{MemoryBits: 1 << 19, ExpectedItems: 4096},
		Shards:      4,
	}
}

func wkey(s string, i int) []byte { return []byte(fmt.Sprintf("%s-%06d", s, i)) }

func TestWindowBasics(t *testing.T) {
	f, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	if f.Generations() != 4 || f.RotateEvery() != 250*time.Millisecond {
		t.Fatalf("shape: G=%d rotateEvery=%v", f.Generations(), f.RotateEvery())
	}
	for i := 0; i < 100; i++ {
		if err := f.Insert(wkey("a", i)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Len() != 100 {
		t.Fatalf("Len = %d, want 100", f.Len())
	}
	for i := 0; i < 100; i++ {
		if !f.Contains(wkey("a", i)) {
			t.Fatalf("key %d missing immediately after insert", i)
		}
	}
	if f.Contains([]byte("never-inserted-key-xyz")) {
		t.Error("false positive on an empty-ish window (possible but wildly unlikely at this load)")
	}
}

// TestWindowExpiry pins the retirement contract: a full-span key
// survives G-1 rotations and is gone after G.
func TestWindowExpiry(t *testing.T) {
	f, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = wkey("exp", i)
	}
	if err := f.InsertBatch(keys, 0); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		f.Rotate()
		for i, k := range keys {
			if !f.Contains(k) {
				t.Fatalf("key %d lost after %d rotations (must survive %d)", i, r, 3)
			}
		}
	}
	f.Rotate() // 4th rotation retires the insert generation
	for i, k := range keys {
		if f.Contains(k) {
			t.Fatalf("key %d still present after G rotations (ring empty, so this is a real leak)", i)
		}
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d after full ring turnover, want 0", f.Len())
	}
	if f.Rotations() != 4 {
		t.Fatalf("Rotations = %d, want 4", f.Rotations())
	}
}

// TestWindowTTLPlacement: a short-TTL key retires earlier than a
// full-span key inserted at the same instant.
func TestWindowTTLPlacement(t *testing.T) {
	f, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	short := []byte("short-ttl-key")
	long := []byte("long-ttl-key")
	// rotateEvery = 250ms; ttl 100ms -> survives ceil(100/250)+1 = 2 rotations.
	if err := f.InsertTTL(short, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(long); err != nil {
		t.Fatal(err)
	}
	if got := f.RotationsFor(100 * time.Millisecond); got != 2 {
		t.Fatalf("RotationsFor(100ms) = %d, want 2", got)
	}
	if got := f.RotationsFor(time.Second); got != 4 {
		t.Fatalf("RotationsFor(span) = %d, want 4 (clamped)", got)
	}
	if got := f.RotationsFor(0); got != 1 {
		t.Fatalf("RotationsFor(0) = %d, want 1", got)
	}
	f.Rotate()
	if !f.Contains(short) || !f.Contains(long) {
		t.Fatal("keys lost after 1 rotation")
	}
	f.Rotate()
	if f.Contains(short) {
		t.Error("short-TTL key survived past its 2-rotation placement")
	}
	if !f.Contains(long) {
		t.Fatal("full-span key lost after 2 rotations")
	}
}

// TestWindowSingleGeneration pins the G=1 degenerate case: the ring is
// one filter, every rotation clears the whole window, and nothing
// panics or wedges.
func TestWindowSingleGeneration(t *testing.T) {
	f, err := New(testOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if f.RotateEvery() != f.Span() {
		t.Fatalf("G=1 rotateEvery %v != span %v", f.RotateEvery(), f.Span())
	}
	k := []byte("solo")
	if err := f.Insert(k); err != nil {
		t.Fatal(err)
	}
	if !f.Contains(k) {
		t.Fatal("key missing before rotation")
	}
	if got := f.RotationsFor(time.Millisecond); got != 1 {
		t.Fatalf("G=1 RotationsFor = %d, want 1", got)
	}
	f.Rotate()
	if f.Contains(k) {
		t.Fatal("G=1 rotation must clear the window")
	}
	if f.Len() != 0 || f.Head() != 0 || f.Rotations() != 1 {
		t.Fatalf("G=1 post-rotation state: len=%d head=%d rot=%d", f.Len(), f.Head(), f.Rotations())
	}
	// The cleared ring accepts new inserts immediately.
	if err := f.Insert(k); err != nil {
		t.Fatal(err)
	}
	if !f.Contains(k) {
		t.Fatal("re-insert after G=1 rotation lost")
	}
}

// TestWindowQueriesRacingRotation hammers Contains/Insert/Delete/batch
// paths from many goroutines while another rotates continuously. Run under
// -race (make race-serving covers this package); the assertion is the
// in-window zero-false-negative contract for keys younger than one
// rotation.
func TestWindowQueriesRacingRotation(t *testing.T) {
	for _, g := range []int{1, 4} {
		t.Run(fmt.Sprintf("G=%d", g), func(t *testing.T) {
			f, err := New(testOptions(g))
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			rotatorDone := make(chan struct{})
			go func() { // rotator
				defer close(rotatorDone)
				for {
					select {
					case <-stop:
						return
					default:
						f.Rotate()
					}
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 2000; i++ {
						k := wkey(fmt.Sprintf("race-%d", w), i)
						if err := f.Insert(k); err != nil {
							t.Errorf("insert: %v", err)
							return
						}
						// The key may rotate out at any moment (the rotator is
						// spinning), so membership can be false — the point is
						// the race detector and that nothing panics.
						f.Contains(k)
						f.ContainsBatchInto([][]byte{k, wkey("other", i)}, nil)
						f.Len()
						f.Stats()
						f.Delete(k)
						f.DeleteBatch([][]byte{k, wkey("other", i)}, 0)
					}
				}(w)
			}
			wg.Wait() // writers first, then stop the rotator
			close(stop)
			<-rotatorDone
		})
	}
}

func TestWindowContainsBatch(t *testing.T) {
	f, err := New(testOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	old := [][]byte{wkey("old", 1), wkey("old", 2)}
	if err := f.InsertBatch(old, 0); err != nil {
		t.Fatal(err)
	}
	f.Rotate()
	f.Rotate()
	fresh := [][]byte{wkey("new", 1), wkey("new", 2)}
	if err := f.InsertBatch(fresh, 0); err != nil {
		t.Fatal(err)
	}
	// Mixed batch: old keys (2 rotations deep), fresh keys, absent keys.
	batch := [][]byte{old[0], fresh[0], wkey("absent", 1), old[1], fresh[1], wkey("absent", 2)}
	want := []bool{true, true, false, true, true, false}
	got := f.ContainsBatchInto(batch, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch flag %d = %v, want %v (got %v)", i, got[i], want[i], got)
		}
	}
	// The scratch path answers the same and, warmed up, allocates nothing.
	var sc mpcbf.BatchScratch
	if got := f.ContainsBatchInto(batch, &sc); !slices.Equal(got, want) {
		t.Fatalf("ContainsBatchInto = %v, want %v", got, want)
	}
	if avg := testing.AllocsPerRun(20, func() { f.ContainsBatchInto(batch, &sc) }); avg != 0 {
		t.Fatalf("ContainsBatchInto with warm scratch: %.1f allocs/op, want 0", avg)
	}
}

func TestWindowDelete(t *testing.T) {
	f, err := New(testOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	k := []byte("deletable")
	if err := f.Insert(k); err != nil {
		t.Fatal(err)
	}
	f.Rotate() // key now lives in a non-head generation
	if err := f.Delete(k); err != nil {
		t.Fatalf("delete of aged key: %v", err)
	}
	if f.Contains(k) {
		t.Fatal("key present after delete")
	}
	if err := f.Delete([]byte("never-there")); err == nil {
		t.Fatal("delete of absent key succeeded")
	}
	// Batch: one present, one absent.
	if err := f.Insert(k); err != nil {
		t.Fatal(err)
	}
	ok, _ := f.DeleteBatch([][]byte{k, []byte("still-not-there")}, 0)
	if !ok[0] || ok[1] {
		t.Fatalf("DeleteBatch flags = %v, want [true false]", ok)
	}
}

func TestWindowMarshalRoundTrip(t *testing.T) {
	f, err := New(testOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := f.Insert(wkey("m", i)); err != nil {
			t.Fatal(err)
		}
	}
	f.Rotate()
	for i := 50; i < 80; i++ {
		if err := f.Insert(wkey("m", i)); err != nil {
			t.Fatal(err)
		}
	}

	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !IsWindowed(blob) {
		t.Fatal("IsWindowed false on a windowed blob")
	}
	g, err := UnmarshalFilter(blob)
	if err != nil {
		t.Fatal(err)
	}
	if g.Head() != f.Head() || g.Rotations() != f.Rotations() || g.Len() != f.Len() ||
		g.Span() != f.Span() || g.Generations() != f.Generations() {
		t.Fatalf("restored shape mismatch: %+v vs %+v", g.Stats(), f.Stats())
	}
	for i := 0; i < 80; i++ {
		if !g.Contains(wkey("m", i)) {
			t.Fatalf("restored window lost key %d", i)
		}
	}
	// The restored ring must retire exactly like the original: one more
	// rotation drops the first 50, three more drop the rest.
	f.Rotate()
	g.Rotate()
	for _, w := range []*Filter{f, g} {
		for i := 0; i < 3; i++ {
			w.Rotate()
		}
		if w.Len() != 0 {
			t.Fatalf("ring not empty after full turnover: %d", w.Len())
		}
	}

	// Re-marshaling the restored filter reproduces the original bytes —
	// the byte-identical property the replication e2e relies on.
	blob2, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := UnmarshalFilter(blob2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Rotations() != g.Rotations() {
		t.Fatal("double round-trip drifted")
	}
}

func TestWindowUnmarshalRejectsCorrupt(t *testing.T) {
	f, err := New(testOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"short":       blob[:8],
		"bad magic":   append([]byte{1, 2, 3, 4}, blob[4:]...),
		"bad version": func() []byte { b := bytes.Clone(blob); b[4] = 99; return b }(),
		"bad head":    func() []byte { b := bytes.Clone(blob); b[12] = 7; return b }(),
		"truncated":   blob[:len(blob)-5],
		"trailing":    append(bytes.Clone(blob), 0xFF),
	}
	for name, data := range cases {
		if _, err := UnmarshalFilter(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := UnmarshalFilter(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	// A ring larger than the body could hold is rejected before the ring
	// is allocated.
	big := bytes.Clone(blob[:windowHdrLen+64])
	binary.LittleEndian.PutUint32(big[8:12], 1000)
	if _, err := UnmarshalFilter(big); err == nil || !strings.Contains(err.Error(), "implausible windowed header") {
		t.Fatalf("1000-generation header over a 64-byte body: %v", err)
	}
}

func TestWindowOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("zero Span accepted")
	}
	// Defaults: G=4, Shards=16.
	f, err := New(Options{Span: time.Second, Filter: mpcbf.Options{MemoryBits: 1 << 20, ExpectedItems: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if f.Generations() != 4 {
		t.Fatalf("default G = %d, want 4", f.Generations())
	}
}

func TestWindowStats(t *testing.T) {
	f, err := New(testOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := f.Insert(wkey("s", i)); err != nil {
			t.Fatal(err)
		}
	}
	f.Rotate()
	st := f.Stats()
	if st.Generations != 3 || st.Rotations != 1 || st.Head != 1 {
		t.Fatalf("stats shape: %+v", st)
	}
	total := 0
	for _, n := range st.GenItems {
		total += n
	}
	if total != 10 || total != f.Len() {
		t.Fatalf("GenItems sum %d != Len %d", total, f.Len())
	}
	if f.MemoryBits() != 3*(1<<19) {
		t.Fatalf("MemoryBits = %d", f.MemoryBits())
	}
	// The head is the generation the rotation just emptied; the fill is
	// the fullest generation's.
	if head, fill := f.ShardStats(); len(head) == 0 || head[0].Items != 0 || fill <= 0 {
		t.Fatalf("ShardStats = %+v, fill %v", head, fill)
	}
	_ = f.SaturatedWords()
}
