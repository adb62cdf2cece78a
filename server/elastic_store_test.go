package server

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	mpcbf "repro"
	"repro/elastic"
	"repro/server/ns"
	"repro/server/wire"
)

// Small seed geometry so growth triggers within a few thousand inserts.
func testElasticStoreOptions(dir string) StoreOptions {
	return StoreOptions{
		Dir:        dir,
		Filter:     mpcbf.Options{MemoryBits: 1 << 15, ExpectedItems: 800, Seed: 42},
		Shards:     2,
		Elastic:    true,
		ElasticFPR: 0.02,
		Sync:       SyncAlways,
		Log:        discardLog(),
	}
}

func TestElasticStoreGrowsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testElasticStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	keys := storeKeys("grow", 3000)
	for _, k := range keys {
		if err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	el := s.Elastic()
	if el == nil {
		t.Fatal("elastic store has nil chain")
	}
	gens := el.Generations()
	if gens < 2 {
		t.Fatalf("3000 inserts into an 800-capacity seed grew to %d generations, want >= 2", gens)
	}
	dump, err := s.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	// Crash without snapshotting: recovery must rebuild the chain from
	// the WAL alone — same generations, same bytes.
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(testElasticStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Elastic().Generations(); got != gens {
		t.Fatalf("recovered %d generations, want %d", got, gens)
	}
	redump, err := r.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump, redump) {
		t.Fatal("recovered chain is not byte-identical to the pre-crash chain")
	}
	for _, k := range keys {
		if !r.Contains(k) {
			t.Fatalf("false negative after recovery: %q", k)
		}
	}
	if r.Len() != len(keys) {
		t.Fatalf("recovered Len = %d, want %d", r.Len(), len(keys))
	}
}

// TestElasticBatchGrowsInRuns: one 4000-key INSERT_BATCH into an
// 800-key seed generation, in the default chain and in an elastic
// namespace, grows the chain in runs: no generation ends over its
// capacity, the expected FPR stays under the target, a sampled batch's
// span keeps the WAL position of its first run, and a restart from the
// WAL alone DUMPs the same bytes.
func TestElasticBatchGrowsInRuns(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testElasticStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.reg.Resolve(ns.Config{MemoryBits: 1 << 15, ExpectedItems: 800, Elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.nsCreateLocked("tenant", cfg, nil); err != nil {
		t.Fatal(err)
	}
	names := []string{"", "tenant"}
	for _, name := range names {
		// The default chain is the WAL's selection context from the
		// start, so its batch's first INSERT lands where the WAL ends.
		seq, off := s.wal.Pos()
		tr := &reqTrace{}
		_, ticket, err := s.mutateEnq(wire.OpInsertBatch, []byte(name), nil, storeKeys("runs", 4000), 0, nil, tr)
		if err := s.wait(ticket, err); err != nil {
			t.Fatalf("ns %q: %v", name, err)
		}
		if name == "" && (tr.entry.WALSeq != seq || tr.entry.WALOff != uint64(off)) {
			t.Errorf("sampled batch span at WAL %d:%d, want its first run's %d:%d", tr.entry.WALSeq, tr.entry.WALOff, seq, off)
		}
	}
	// The default's DUMP carries the namespaces too, so the dumps are
	// taken once both batches are in.
	dumps := map[string][]byte{}
	for _, name := range names {
		el := s.reg.Lookup([]byte(name)).Elastic()
		st := el.Stats()
		if st.Generations < 3 {
			t.Errorf("ns %q: %d generations after 4000 keys into an 800-key seed, want >= 3", name, st.Generations)
		}
		for i, g := range st.Gens {
			if g.Items > g.Capacity {
				t.Errorf("ns %q: generation %d holds %d keys, over its capacity %d", name, i, g.Items, g.Capacity)
			}
		}
		if fpr := el.ExpectedFPR(); fpr >= el.TargetFPR() {
			t.Errorf("ns %q: expected FPR %.4f, want under the target %.4f", name, fpr, el.TargetFPR())
		}
		if dumps[name], err = s.marshal([]byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(testElasticStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for name, dump := range dumps {
		redump, err := r.marshal([]byte(name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dump, redump) {
			t.Errorf("ns %q: the chain replayed from the WAL DUMPs different bytes", name)
		}
	}
}

func TestElasticStoreRecoversFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testElasticStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	keys := storeKeys("snap", 2400)
	if err := s.InsertBatch(keys[:1600]); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Tail mutations after the snapshot, including more growth.
	if err := s.InsertBatch(keys[1600:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	dump, err := s.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenStore(testElasticStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	redump, err := r.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump, redump) {
		t.Fatal("snapshot+tail recovery diverged from the live chain")
	}
	for _, k := range keys[1:] {
		if !r.Contains(k) {
			t.Fatalf("false negative after snapshot+tail recovery: %q", k)
		}
	}
}

func TestElasticModeIsSticky(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testElasticStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	plain := testStoreOptions(dir)
	if _, err := OpenStore(plain); err == nil {
		t.Fatal("opening an elastic store without Elastic succeeded")
	}

	dir2 := t.TempDir()
	p, err := OpenStore(testStoreOptions(dir2))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Insert([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(testElasticStoreOptions(dir2)); err == nil {
		t.Fatal("opening a plain store with Elastic succeeded")
	}

	bad := testElasticStoreOptions(t.TempDir())
	bad.Window = 1e9
	bad.Generations = 2
	if _, err := OpenStore(bad); err == nil {
		t.Fatal("Elastic+Window accepted")
	}
}

func TestElasticImportSplicesAndSurvivesRestart(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, err := OpenStore(testElasticStoreOptions(srcDir))
	if err != nil {
		t.Fatal(err)
	}
	srcKeys := storeKeys("src", 2000) // enough to grow the source chain
	if err := src.InsertBatch(srcKeys); err != nil {
		t.Fatal(err)
	}
	if src.Elastic().Generations() < 2 {
		t.Fatalf("source chain did not grow (%d generations)", src.Elastic().Generations())
	}
	blob, err := src.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	dst, err := OpenStore(testElasticStoreOptions(dstDir))
	if err != nil {
		t.Fatal(err)
	}
	dstKeys := storeKeys("dst", 300)
	if err := dst.InsertBatch(dstKeys); err != nil {
		t.Fatal(err)
	}
	if err := dst.Import(blob); err != nil {
		t.Fatal(err)
	}
	if got := dst.Elastic().Imports(); got == 0 {
		t.Fatal("import counter did not advance")
	}
	for _, k := range append(append([][]byte{}, srcKeys...), dstKeys...) {
		if !dst.Contains(k) {
			t.Fatalf("false negative after import: %q", k)
		}
	}
	// New inserts must still land in the destination's own head, not an
	// imported generation, and deletes of imported keys must route to the
	// imported generation.
	if err := dst.Insert([]byte("post-import")); err != nil {
		t.Fatal(err)
	}
	if err := dst.Delete(srcKeys[0]); err != nil {
		t.Fatalf("delete of imported key: %v", err)
	}

	dump, err := dst.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.wal.Close(); err != nil { // crash: imports must replay from the WAL
		t.Fatal(err)
	}
	r, err := OpenStore(testElasticStoreOptions(dstDir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	redump, err := r.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump, redump) {
		t.Fatal("imported chain did not replay byte-identically")
	}
	for _, k := range srcKeys[1:] {
		if !r.Contains(k) {
			t.Fatalf("imported key lost after crash: %q", k)
		}
	}
}

// TestElasticImportLogsEachGenerationOnce: an IMPORT of a dumped chain
// logs one ELASTIC_IMPORT record per non-empty source generation, whose
// body is that generation's MarshalBinary, and a restart replays the
// records to a chain that DUMPs the bytes the live one did.
func TestElasticImportLogsEachGenerationOnce(t *testing.T) {
	src, err := OpenStore(testElasticStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	keys := storeKeys("src", 4000)
	for i := 0; i < len(keys); i += 200 { // each batch grows the chain in runs
		if err := src.InsertBatch(keys[i : i+200]); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := src.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	chain, err := elastic.UnmarshalFilter(blob)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	chain.View(func(gens []*mpcbf.Sharded) {
		for _, g := range gens {
			if g.Len() == 0 {
				continue
			}
			b, err := g.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b)
		}
	})
	if len(want) < 2 {
		t.Fatalf("source chain has %d non-empty generations, want a multi-generation chain", len(want))
	}

	dir := t.TempDir()
	dst, err := OpenStore(testElasticStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.InsertBatch(storeKeys("dst", 300)); err != nil {
		t.Fatal(err)
	}
	if err := dst.Import(blob); err != nil {
		t.Fatal(err)
	}
	files, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	for _, seq := range files.segments {
		_, _, err := replayWAL(walPath(dir, seq), func(op byte, body []byte) error {
			if op == walOpElasticImport {
				got = append(got, bytes.Clone(body))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("logged %d import records, want one per non-empty source generation (%d)", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("import record %d is not source generation %d's MarshalBinary", i, i)
		}
	}

	dump, err := dst.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.wal.Close(); err != nil { // crash: the imports replay from the WAL
		t.Fatal(err)
	}
	r, err := OpenStore(testElasticStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	redump, err := r.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump, redump) {
		t.Fatal("restart after the import DUMPs other bytes")
	}
}

func TestImportRejectsWrongStateKinds(t *testing.T) {
	// A windowed dump must be refused.
	wdir := t.TempDir()
	wopts := testStoreOptions(wdir)
	wopts.Window = 1e9 * 3600
	wopts.Generations = 2
	ws, err := OpenStore(wopts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Insert([]byte("w")); err != nil {
		t.Fatal(err)
	}
	wblob, err := ws.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	dst, err := OpenStore(testElasticStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.Import(wblob); err == nil {
		t.Fatal("windowed import accepted")
	}
	if err := dst.Import([]byte("garbage")); err == nil {
		t.Fatal("garbage import accepted")
	}

	// Import into a non-elastic store must be refused.
	plain, err := OpenStore(testStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	pb, err := plain.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Import(pb); err == nil {
		t.Fatal("import into a plain store accepted")
	}
}

func TestElasticNamespaceGrowsEvictsRecovers(t *testing.T) {
	dir := t.TempDir()
	opts := testStoreOptions(dir)
	opts.NsDefaults = ns.Config{MemoryBits: 1 << 14, ExpectedItems: 400}
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.reg.Resolve(ns.Config{MemoryBits: 1 << 14, ExpectedItems: 400, Elastic: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.nsCreateLocked("tenant", cfg, nil); err != nil {
		t.Fatal(err)
	}
	keys := storeKeys("ns-grow", 1500)
	for i, k := range keys {
		if _, _, err := s.mutateEnq(wire.OpInsert, []byte("tenant"), k, nil, 0, nil, nil); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := s.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	e := s.reg.Lookup([]byte("tenant"))
	if e == nil || e.Elastic() == nil {
		t.Fatal("tenant is not elastic")
	}
	gens := e.Elastic().Generations()
	if gens < 2 {
		t.Fatalf("namespaced chain did not grow (%d generations)", gens)
	}
	dump, err := s.marshal([]byte("tenant"))
	if err != nil {
		t.Fatal(err)
	}

	// Evict and recover through a read: the chain must come back whole.
	if err := s.reg.Evict(e); err != nil {
		t.Fatal(err)
	}
	ok, err := liveContains(s, "tenant", keys[0])
	if err != nil || !ok {
		t.Fatalf("recovered read: ok=%v err=%v", ok, err)
	}
	redump, err := s.marshal([]byte("tenant"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump, redump) {
		t.Fatal("evict/recover changed the chain bytes")
	}

	// Crash; replay must rebuild the same chain (snapshotless path).
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	redump, err = r.marshal([]byte("tenant"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump, redump) {
		t.Fatal("namespaced chain did not replay byte-identically")
	}
	for _, k := range keys {
		ok, err := liveContains(r, "tenant", k)
		if err != nil || !ok {
			t.Fatalf("false negative after replay: %q (err=%v)", k, err)
		}
	}
	st, err := r.NsStats([]byte("tenant"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != uint64(len(keys)) {
		t.Fatalf("NsStats items = %d, want %d", st.Items, len(keys))
	}
}

func TestElasticWindowNamespaceExclusion(t *testing.T) {
	s, err := OpenStore(testStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.reg.Resolve(ns.Config{MemoryBits: 1 << 14, ExpectedItems: 100, Elastic: true, Window: 1e9})
	if err == nil {
		t.Fatal("elastic+windowed namespace accepted")
	}
}

func TestElasticStatsShapes(t *testing.T) {
	s, err := OpenStore(testElasticStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := storeKeys("stats", 2000)
	if err := s.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	st, err := s.ElasticStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Gens) != s.Elastic().Generations() {
		t.Fatalf("stats has %d gens, chain has %d", len(st.Gens), s.Elastic().Generations())
	}
	if st.Grows == 0 {
		t.Fatal("stats reports zero grows after growth")
	}
	var items uint64
	for _, g := range st.Gens {
		items += g.Items
	}
	if items != uint64(len(keys)) {
		t.Fatalf("per-generation items sum to %d, want %d", items, len(keys))
	}

	plain, err := OpenStore(testStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.ElasticStats(); err == nil {
		t.Fatal("ElasticStats on a plain store succeeded")
	}
}

// TestElasticStatsRecoversEvicted: ELASTIC_STATS reads like every other
// read, so an evicted elastic namespace is recovered and reports the
// chain it reported before the eviction.
func TestElasticStatsRecoversEvicted(t *testing.T) {
	s, err := OpenStore(testStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := wire.NsConfig{MemoryBits: 1 << 12, ExpectedItems: 100, Shards: 2, Flags: wire.NsFlagElastic}
	if _, err := s.nsCreateEnq([]byte("el"), cfg, nil); err != nil {
		t.Fatal(err)
	}
	nsInsertBatch(t, s, "el", storeKeys("el", 400))
	want, err := s.elasticStats([]byte("el"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Gens) < 2 {
		t.Fatalf("chain did not grow: %d generations", len(want.Gens))
	}
	s.mu.Lock()
	err = s.reg.Evict(s.reg.Lookup([]byte("el")))
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.elasticStats([]byte("el"))
	if err != nil {
		t.Fatalf("ELASTIC_STATS of the evicted namespace: %v", err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ELASTIC_STATS after eviction = %+v, want %+v", got, want)
	}
}

func TestElasticGrowthReplicates(t *testing.T) {
	// A replica fed the primary's WAL bytes must grow its chain at the
	// same records and end byte-identical.
	pdir, rdir := t.TempDir(), t.TempDir()
	p, err := OpenStore(testElasticStoreOptions(pdir))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ropts := testElasticStoreOptions(rdir)
	ropts.Replica = true
	r, err := OpenStore(ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	keys := storeKeys("rep", 2500)
	if err := p.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	shipSegment(t, p, pdir, r)
	if got, want := r.Elastic().Generations(), p.Elastic().Generations(); got != want {
		t.Fatalf("replica grew to %d generations, primary %d", got, want)
	}
	pd, err := p.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := r.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pd, rd) {
		t.Fatal("replica chain is not byte-identical to the primary's")
	}
}

// residency describes which namespaces of s are resident and the bytes
// they take.
func residency(s *Store) string {
	var b strings.Builder
	for _, name := range s.NsList() {
		fmt.Fprintf(&b, "%s resident=%v, ", name, s.reg.Lookup([]byte(name)).Resident())
	}
	fmt.Fprintf(&b, "%d bytes", s.reg.ResidentBytes())
	return b.String()
}

// TestReplayedGrowthKeepsQuota: growth re-enforces the namespace quota
// when it replays, as it does live. An elastic namespace grows past a
// 5000-byte quota and evicts the plain one beside it; a replica fed the
// primary's segment and a WAL-only reopen must each end with the live
// store's residency.
func TestReplayedGrowthKeepsQuota(t *testing.T) {
	pdir := t.TempDir()
	opts := testStoreOptions(pdir)
	opts.NsQuota = 5000
	p, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := wire.NsConfig{MemoryBits: 2048 * 8, ExpectedItems: 400, Shards: 2}
	el := cfg
	el.Flags = wire.NsFlagElastic
	for _, c := range []struct {
		name string
		cfg  wire.NsConfig
	}{{"grow", el}, {"other", cfg}} {
		if err := p.wait(p.nsCreateEnq([]byte(c.name), c.cfg, nil)); err != nil {
			t.Fatal(err)
		}
	}
	nsInsertBatch(t, p, "grow", storeKeys("grow", 1500))
	if gens := p.reg.Lookup([]byte("grow")).Elastic().Generations(); gens < 2 {
		t.Fatalf("1500 inserts grew the chain to %d generations, want >= 2", gens)
	}
	if p.reg.Lookup([]byte("other")).Resident() {
		t.Fatalf("growth past the quota left the other namespace resident: %s", residency(p))
	}
	want := residency(p)

	ropts := testStoreOptions(t.TempDir())
	ropts.NsQuota, ropts.Replica = opts.NsQuota, true
	r, err := OpenStore(ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	shipSegment(t, p, pdir, r)
	if got := residency(r); got != want {
		t.Errorf("replica residency %s, live %s", got, want)
	}

	if err := p.wal.Close(); err != nil {
		t.Fatal(err)
	}
	q, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if got := residency(q); got != want {
		t.Errorf("WAL-only reopen residency %s, live %s", got, want)
	}
}

func TestGrowthAckIsDurable(t *testing.T) {
	// The insert that triggers growth must not ack before the GROW record
	// is durable: kill the WAL right after and replay — the chain either
	// has the growth or re-triggers it, but acked keys are never lost.
	dir := t.TempDir()
	s, err := OpenStore(testElasticStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	var acked [][]byte
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("durable-%d", i))
		if err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, k)
		if s.Elastic().Grows() > 0 {
			break
		}
		if i > 5000 {
			t.Fatal("no growth after 5000 inserts")
		}
	}
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStore(testElasticStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Elastic().Grows() == 0 {
		t.Fatal("acked growth lost in replay")
	}
	for _, k := range acked {
		if !r.Contains(k) {
			t.Fatalf("acked key lost: %q", k)
		}
	}
}
