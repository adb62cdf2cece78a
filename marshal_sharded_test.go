package mpcbf

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// legacyShardedMarshal reproduces the version-1 sharded wire format
// ([nShards u32][count u64][shards...]) that stored no magic, version, or
// shard-selection seed, so a test can hold the decoder to refusing it
// without keeping fixture files around.
func legacyShardedMarshal(t *testing.T, s *Sharded) []byte {
	t.Helper()
	out := make([]byte, 12)
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(s.shards)))
	binary.LittleEndian.PutUint64(out[4:12], uint64(s.count.Load()))
	for i := range s.shards {
		blob, err := s.shards[i].f.MarshalBinary()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		var size [4]byte
		binary.LittleEndian.PutUint32(size[:], uint32(len(blob)))
		out = append(out, size[:]...)
		out = append(out, blob...)
	}
	return out
}

func newPopulatedSharded(t *testing.T, seed uint32) (*Sharded, [][]byte) {
	t.Helper()
	s, err := NewSharded(Options{MemoryBits: 1 << 19, ExpectedItems: 4000, Seed: seed}, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := apiKeys("roundtrip", 4000)
	if err := s.InsertBatch(keys, 0); err != nil {
		t.Fatal(err)
	}
	// A few duplicates so EstimateCount has multiplicity to preserve.
	for _, k := range keys[:16] {
		if err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	return s, keys
}

// assertShardedEqual checks the observable state UnmarshalSharded must
// preserve: Len, membership, and multiplicity estimates.
func assertShardedEqual(t *testing.T, want, got *Sharded, keys [][]byte) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	if got.Shards() != want.Shards() {
		t.Fatalf("Shards = %d, want %d", got.Shards(), want.Shards())
	}
	if got.Seed() != want.Seed() {
		t.Fatalf("Seed = %d, want %d", got.Seed(), want.Seed())
	}
	for _, k := range keys {
		if !got.Contains(k) {
			t.Fatalf("false negative after round trip: %q", k)
		}
		if w, g := want.EstimateCount(k), got.EstimateCount(k); g != w {
			t.Fatalf("EstimateCount(%q) = %d, want %d", k, g, w)
		}
	}
}

func TestShardedMarshalV2SelfDescribing(t *testing.T) {
	s, keys := newPopulatedSharded(t, 77)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The format needs no out-of-band seed...
	g, err := UnmarshalSharded(data)
	if err != nil {
		t.Fatal(err)
	}
	assertShardedEqual(t, s, g, keys)
	// ...and the clone must route new keys identically to the original
	// (the restored seed drives shard selection).
	extra := apiKeys("post-restore", 500)
	if err := g.InsertBatch(extra, 0); err != nil {
		t.Fatal(err)
	}
	for _, k := range extra {
		if !g.Contains(k) {
			t.Fatalf("false negative on post-restore insert: %q", k)
		}
	}
}

func TestShardedUnmarshalErrorPaths(t *testing.T) {
	s, _ := newPopulatedSharded(t, 5)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(mutate func([]byte)) []byte {
		c := append([]byte(nil), data...)
		mutate(c)
		return c
	}
	cases := map[string][]byte{
		"empty":            {},
		"magic only":       data[:4],
		"header truncated": data[:20],
		"body truncated":   data[:len(data)/2],
		"trailing bytes":   append(append([]byte(nil), data...), 0xFF),
		"future version": corrupt(func(c []byte) {
			binary.LittleEndian.PutUint32(c[4:8], 99)
		}),
		"zero shards": corrupt(func(c []byte) {
			binary.LittleEndian.PutUint32(c[12:16], 0)
		}),
		"absurd shard count": corrupt(func(c []byte) {
			binary.LittleEndian.PutUint32(c[12:16], 1<<24)
		}),
		"negative count": corrupt(func(c []byte) {
			binary.LittleEndian.PutUint64(c[16:24], 1<<63)
		}),
		"oversized shard size": corrupt(func(c []byte) {
			binary.LittleEndian.PutUint32(c[24:28], 1<<30)
		}),
		"corrupt shard magic": corrupt(func(c []byte) {
			c[28] ^= 0xFF // first byte of shard 0's core header
		}),
	}
	for name, bad := range cases {
		if _, err := UnmarshalSharded(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The seed-less version-1 layout is no longer read.
	if _, err := UnmarshalSharded(legacyShardedMarshal(t, s)); err == nil || !strings.Contains(err.Error(), "not a sharded filter") {
		t.Errorf("version-1 blob: err = %v, want it refused as not a sharded filter", err)
	}
}

// TestShardedUnmarshalBoundsShardTable: a header claiming more shards
// than the body has room for (a 4-byte size plus a filter header each)
// is rejected before the shard table is allocated, so a short blob
// cannot make the decoder allocate several times its own size. A
// checking decode builds the shard table too, and is held to the same.
func TestShardedUnmarshalBoundsShardTable(t *testing.T) {
	const nShards = 4096
	// Room for a size and one word per shard, not for a filter header.
	data := make([]byte, shardedHdrLen+nShards*(4+8))
	le := binary.LittleEndian
	le.PutUint32(data[0:4], shardedMagic)
	le.PutUint32(data[4:8], shardedVersion)
	le.PutUint32(data[12:16], nShards)
	for _, tc := range []struct {
		name string
		a    *Arenas
	}{{"decode", nil}, {"check", &Arenas{Check: true}}} {
		read := func() error {
			_, err := ReadSharded(bytes.NewReader(data), int64(len(data)), tc.a)
			return err
		}
		if err := read(); err == nil || !strings.Contains(err.Error(), "implausible sharded header") {
			t.Fatalf("%s: err = %v, want the shard-count bound", tc.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read()
		runtime.ReadMemStats(&after)
		// One read buffer no larger than the blob, and a few small headers.
		if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(data)) {
			t.Fatalf("%s: rejecting a %d-byte blob allocated %d bytes", tc.name, len(data), got)
		}
	}
}

func TestShardedDeleteBatch(t *testing.T) {
	s, err := NewSharded(Options{MemoryBits: 1 << 19, ExpectedItems: 4000, Seed: 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := apiKeys("db", 3000)
	if err := s.InsertBatch(keys, 0); err != nil {
		t.Fatal(err)
	}
	// Clean batch of present keys: no error, every flag set, survivors
	// keep answering positive (deleting present keys cannot produce false
	// negatives — shared counters stay >= 1).
	ok, err := s.DeleteBatch(keys[:2000], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ok) != 2000 {
		t.Fatalf("result length %d, want 2000", len(ok))
	}
	for i, v := range ok {
		if !v {
			t.Fatalf("present key %d not deleted", i)
		}
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
	for _, k := range keys[2000:] {
		if !s.Contains(k) {
			t.Fatalf("false negative on surviving key %q", k)
		}
	}
	// Mixed batch with absent keys: the absent ones fail individually
	// (joined error, flag false) without derailing the present ones, and
	// Len only moves by the successful deletes.
	absent := apiKeys("never-inserted", 100)
	mixed := append(append([][]byte(nil), keys[2000:]...), absent...)
	ok, err = s.DeleteBatch(mixed, 2)
	if err == nil {
		t.Fatal("expected joined errors for absent keys")
	}
	deleted := 0
	for i := 0; i < 1000; i++ {
		if ok[i] {
			deleted++
		} else {
			t.Fatalf("present key %d not deleted", i)
		}
	}
	// Absent keys may occasionally "succeed" as filter false positives;
	// just require that Len matches the flags exactly.
	for i := 1000; i < len(mixed); i++ {
		if ok[i] {
			deleted++
		}
	}
	if got := 1000 - deleted; s.Len() != got {
		t.Fatalf("Len = %d, want %d (flags and count must agree)", s.Len(), got)
	}
}

// TestShardedMarshalAllocs: MarshalBinary, which every snapshot runs
// under the store's mutation lock, allocates its encoding and, per shard
// with saturated words, their sorted list; the streaming encoder it is
// built on writes into that buffer.
func TestShardedMarshalAllocs(t *testing.T) {
	s, err := NewSharded(Options{MemoryBits: 1 << 19, ExpectedItems: 4000, Seed: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InsertBatch(apiKeys("marshal-allocs", 2000), 0); err != nil || s.SaturatedWords() != 0 {
		t.Fatalf("insert: %v, %d saturated words", err, s.SaturatedWords())
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := s.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("MarshalBinary: %.0f allocs, want 1", n)
	}
}
