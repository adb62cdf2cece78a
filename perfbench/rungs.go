package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sync"
	"time"

	mpcbf "repro"
	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hashing"
	"repro/internal/hcbf"
	"repro/server"
	"repro/server/wire"
)

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink uint64

// nsPerCall runs fn(0..n-1) reps times and returns the median time per
// call in ns.
func nsPerCall(reps, n int, fn func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// population is how many keys the workload's filter holds while it runs.
func (w *workload) population() int {
	if w.Preload > 0 {
		return w.Preload
	}
	return w.RungPop
}

// inProcessRungs times the public functions of each layer below the
// server on the workload's geometry and key stream: HCBF word kernel,
// core MPCBF at one shard, Sharded, Store, and the wire codec. dir is
// the stopped daemon's data dir.
func inProcessRungs(e *env, dir string) error {
	w, r, ks := e.w, e.res, e.keyspace()
	g := w.Geometry
	pop := w.population()
	hcbfRungs(r, g, pop, e.seed)
	if err := coreRungs(r, g, pop, ks, e.seed); err != nil {
		return err
	}
	wireRungs(r, ks, w.Batch)
	return storeRungs(e, dir, ks)
}

// shardDesign is the MPCBF design of one shard of g.
func shardDesign(g geometry) (analytic.MPCBFDesign, error) {
	return analytic.Design((g.ExpectedItems+g.Shards-1)/g.Shards, g.MemoryBits/g.Shards, 64, 3, 1)
}

// hcbfRungs times the register kernel on words filled to the workload's
// load: a Poisson number of keys per word, k=3 increments each, at the
// shard design's first-level width. The words fit in L1 so the rung is
// the kernel's arithmetic alone; core.contains_ns adds the memory access.
func hcbfRungs(r *result, g geometry, pop int, seed uint64) {
	d, err := shardDesign(g)
	if err != nil {
		return
	}
	b1 := d.B1
	load := float64(pop) / float64(g.MemoryBits/64)
	rng := hashing.NewRNG(seed ^ 0x6863626621)
	words := make([]uint64, 4096)
	for i := range words {
		var x uint64
		for n := poisson(rng, load); n > 0; n-- {
			for k := 0; k < 3; k++ {
				if hcbf.Used64(x, b1) < 64 {
					x, _ = hcbf.Inc64(x, b1, rng.Intn(b1))
				}
			}
		}
		words[i] = x
	}
	const probes = 1 << 14
	type probe struct{ word, s0, s1, s2 int }
	ps := make([]probe, probes)
	for i := range ps {
		ps[i] = probe{rng.Intn(len(words)), rng.Intn(b1), rng.Intn(b1), rng.Intn(b1)}
	}
	count := nsPerCall(7, probes, func(i int) {
		p := ps[i]
		x := words[p.word]
		if hcbf.Has64(x, p.s0) && hcbf.Has64(x, p.s1) && hcbf.Has64(x, p.s2) {
			sink += uint64(hcbf.Count64(x, b1, p.s0))
		}
	})
	incdec := nsPerCall(7, probes, func(i int) {
		p := ps[i]
		x := words[p.word]
		if hcbf.Used64(x, b1) < 64 {
			y, _ := hcbf.Inc64(x, b1, p.s0)
			y, _, _ = hcbf.Dec64(y, b1, p.s0)
			sink += y
		}
	})
	r.set("hcbf.count_ns", count, "ns")
	r.set("hcbf.incdec_ns", incdec, "ns")
	r.set("hcbf.load_keys_per_word", load, "keys")
}

// poisson draws from Poisson(lambda) (Knuth; lambda is small here).
func poisson(rng *hashing.RNG, lambda float64) int {
	l, k, p := math.Exp(-lambda), 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// keyList materializes the keys of ranks.
func keyList(ks *dataset.Keyspace, ranks []int) [][]byte {
	out := make([][]byte, len(ranks))
	for i, rk := range ranks {
		out[i] = ks.Key(rk)
	}
	return out
}

// mixedRanks returns n ranks alternating member (below pop) and absent.
func mixedRanks(rng *hashing.RNG, n, pop int) []int {
	out := make([]int, n)
	for i := range out {
		if i%2 == 0 && pop > 0 {
			out[i] = rng.Intn(pop)
		} else {
			out[i] = absentBase + rng.Intn(1<<30)
		}
	}
	return out
}

// coreRungs times core.Filter at one shard of the workload's geometry,
// filled with that shard's share of the population.
func coreRungs(r *result, g geometry, pop int, ks *dataset.Keyspace, seed uint64) error {
	f, err := core.New(core.Config{
		MemoryBits: g.MemoryBits / g.Shards,
		ExpectedN:  (g.ExpectedItems + g.Shards - 1) / g.Shards,
		Seed:       1,
		Overflow:   core.OverflowSaturate,
	})
	if err != nil {
		return err
	}
	share := pop / g.Shards
	for rk := 0; rk < share; rk++ {
		if err := f.Insert(ks.Key(rk)); err != nil {
			return fmt.Errorf("core rung fill: %w", err)
		}
	}
	rng := hashing.NewRNG(seed ^ 0x636f7265)
	probes := keyList(ks, mixedRanks(rng, 1<<15, share))
	contains := nsPerCall(5, len(probes), func(i int) {
		if f.Contains(probes[i]) {
			sink++
		}
	})
	fresh := make([]int, 1<<13)
	for i := range fresh {
		fresh[i] = rungBase + i
	}
	freshKeys := keyList(ks, fresh)
	var opErr error
	pair := nsPerCall(5, len(freshKeys), func(i int) {
		if err := f.Insert(freshKeys[i]); err != nil {
			opErr = err
			return
		}
		if err := f.Delete(freshKeys[i]); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return fmt.Errorf("core rung insert/delete: %w", opErr)
	}
	r.set("core.contains_ns", contains, "ns")
	r.set("core.insert_delete_ns", pair, "ns")
	return nil
}

// wireRungs times the full codec path of one request and its response
// through an in-memory buffer, per key: batch ContainsBatch and
// single-key Contains. The *_client_ns variants time only the client's
// share (encode request, decode response), which the ladder subtracts
// from client-observed round trips.
func wireRungs(r *result, ks *dataset.Keyspace, batch int) {
	if batch < 1 {
		batch = 256
	}
	keys := keyList(ks, mixedRanks(hashing.NewRNG(7), batch, 1<<20))
	flags := make([]bool, batch)
	var (
		conn    bytes.Buffer
		bw      = bufio.NewWriter(&conn)
		br      = bufio.NewReader(&conn)
		req     []byte
		resp    []byte
		rbuf    []byte
		scratch [][]byte
		out     []bool
	)
	roundTrip := func(encode func([]byte) []byte, respond func(wire.Request, []byte) []byte, decode func([]byte)) {
		req = encode(req[:0])
		wire.WriteFrame(bw, req)
		bw.Flush()
		payload, _ := wire.ReadFrame(br, rbuf, 0)
		rq, _ := wire.DecodeRequestInto(payload, scratch)
		scratch = rq.Keys[:0]
		resp = respond(rq, resp[:0])
		wire.WriteFrame(bw, resp)
		bw.Flush()
		payload, _ = wire.ReadFrame(br, rbuf, 0)
		rbuf = payload
		_, body, _ := wire.DecodeStatus(payload)
		decode(body)
	}
	encBatch := func(b []byte) []byte { return wire.AppendBatchRequest(b, wire.OpContainsBatch, keys) }
	respBatch := func(rq wire.Request, b []byte) []byte {
		return wire.AppendBools(wire.AppendOK(b), flags[:len(rq.Keys)])
	}
	decBatch := func(body []byte) { out, _ = wire.DecodeBoolsInto(body, out) }
	const rounds = 2000
	full := nsPerCall(5, rounds, func(int) { roundTrip(encBatch, respBatch, decBatch) })
	respBody := wire.AppendBools(nil, flags)
	client := nsPerCall(5, rounds, func(int) {
		req = encBatch(req[:0])
		decBatch(respBody)
	})
	r.set("wire.batch_codec_ns", full/float64(batch), "ns")
	r.set("wire.batch_client_ns", client/float64(batch), "ns")

	key := keys[0]
	encKey := func(b []byte) []byte { return wire.AppendKeyRequest(b, wire.OpContains, key) }
	respKey := func(_ wire.Request, b []byte) []byte { return wire.AppendBool(wire.AppendOK(b), true) }
	decKey := func(body []byte) {
		if ok, _ := wire.DecodeBool(body); ok {
			sink++
		}
	}
	full = nsPerCall(5, rounds*50, func(int) { roundTrip(encKey, respKey, decKey) })
	keyBody := wire.AppendBool(nil, true)
	client = nsPerCall(5, rounds*50, func(int) {
		req = encKey(req[:0])
		decKey(keyBody)
	})
	r.set("wire.key_codec_ns", full, "ns")
	r.set("wire.key_client_ns", client, "ns")
}

// storeRungs opens the stopped daemon's data dir in-process and times
// the Sharded and Store layers on it: open, batch contains, Sharded
// inserts, apply+WAL enqueue under SyncNever, snapshot, and durable
// inserts under SyncAlways after reopening.
func storeRungs(e *env, dir string, ks *dataset.Keyspace) error {
	w, r := e.w, e.res
	g := w.Geometry
	// The geometry only matters when the daemon never wrote a snapshot;
	// tenants' daemons run the default filter with mpcbfd's defaults.
	fopts, shards := filterOptions(g), g.Shards
	if w.Namespaces > 0 {
		fopts, shards = filterOptions(geometry{MemoryBits: 1 << 26, ExpectedItems: 1_000_000}), 16
	}
	opts := server.StoreOptions{Dir: dir, Filter: fopts, Shards: shards, Sync: server.SyncNever, Log: quiet}
	t0 := time.Now()
	st, err := server.OpenStore(opts)
	if err != nil {
		return fmt.Errorf("store rung open: %w", err)
	}
	r.set("store.open_s", time.Since(t0).Seconds(), "s")

	// The filter the workload's requests hit: the daemon's own default
	// filter, or for tenants a namespace-sized Sharded filled in-process.
	sh := st.Filter()
	containsBatch := func(keys [][]byte) { st.ContainsBatch(keys) }
	if w.Namespaces > 0 {
		if sh, err = mpcbf.NewSharded(filterOptions(g), g.Shards); err != nil {
			st.Close()
			return err
		}
		for rk := 0; rk < w.population(); rk++ {
			if err := sh.Insert(ks.Key(rk)); err != nil {
				st.Close()
				return fmt.Errorf("store rung fill: %w", err)
			}
		}
		ns := []byte(nsName(0))
		containsBatch = func(keys [][]byte) { st.NsContainsBatch(ns, keys) }
	}
	rng := hashing.NewRNG(e.seed ^ 0x73746f7265)
	const batch = 256
	batches := make([][][]byte, 256)
	for i := range batches {
		batches[i] = keyList(ks, mixedRanks(rng, batch, w.population()))
	}
	r.set("mpcbf.contains_batch_ns", nsPerCall(7, len(batches), func(i int) {
		sh.ContainsBatch(batches[i], 0)
	})/batch, "ns")
	r.set("store.contains_batch_ns", nsPerCall(7, len(batches), func(i int) {
		containsBatch(batches[i])
	})/batch, "ns")

	// mpcbf.insert_ns: two goroutines insert fresh keys, timed, then
	// delete them untimed so the population stays where it was.
	const perG = 1 << 12
	var insertNs [2]float64
	var insertErr [2]error
	var wg sync.WaitGroup
	for gi := 0; gi < 2; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			keys := make([][]byte, perG)
			for i := range keys {
				keys[i] = ks.Key(rungBase + 1<<30 + gi<<20 + i)
			}
			var per []float64
			for rep := 0; rep < 5; rep++ {
				t := time.Now()
				for _, k := range keys {
					if err := sh.Insert(k); err != nil {
						insertErr[gi] = err
					}
				}
				per = append(per, float64(time.Since(t).Nanoseconds())/perG)
				for _, k := range keys {
					if err := sh.Delete(k); err != nil {
						insertErr[gi] = err
					}
				}
			}
			insertNs[gi] = median(per)
		}(gi)
	}
	wg.Wait()
	for _, err := range insertErr {
		if err != nil {
			st.Close()
			return fmt.Errorf("mpcbf rung insert: %w", err)
		}
	}
	r.set("mpcbf.insert_ns", (insertNs[0]+insertNs[1])/2, "ns")

	// store.apply_ns and store.wal_bytes_per_key: Store.Insert under
	// SyncNever is the filter apply plus the WAL enqueue.
	const applyN = 1 << 14
	keys := make([][]byte, applyN)
	for i := range keys {
		keys[i] = ks.Key(rungBase + 2<<30 + i)
	}
	_, b0 := st.WALCum()
	var applyErr error
	r.set("store.apply_ns", nsPerCall(1, applyN, func(i int) {
		if err := st.Insert(keys[i]); err != nil {
			applyErr = err
		}
	}), "ns")
	_, b1 := st.WALCum()
	if applyErr != nil {
		st.Close()
		return fmt.Errorf("store rung apply: %w", applyErr)
	}
	r.set("store.wal_bytes_per_key", float64(b1-b0)/applyN, "bytes")

	var snaps []float64
	for start := time.Now(); len(snaps) < 3 && (len(snaps) == 0 || time.Since(start) < 2*time.Second); {
		t := time.Now()
		if err := st.Snapshot(); err != nil {
			st.Close()
			return fmt.Errorf("store rung snapshot: %w", err)
		}
		snaps = append(snaps, float64(time.Since(t).Microseconds())/1e3)
	}
	r.set("store.snapshot_ms", median(snaps), "ms")
	if err := st.Close(); err != nil {
		return fmt.Errorf("store rung close: %w", err)
	}
	opts.Sync = server.SyncAlways
	return durableRung(e, opts, ks)
}

// durableRung reopens the store under opts (SyncAlways) and times
// Store.Insert from two goroutines: apply, enqueue, and waiting for the
// shared commit.
func durableRung(e *env, opts server.StoreOptions, ks *dataset.Keyspace) error {
	st, err := server.OpenStore(opts)
	if err != nil {
		return fmt.Errorf("store rung reopen: %w", err)
	}
	var lat [2]samples
	var errs [2]error
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Second)
	for gi := range lat {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				k := ks.Key(rungBase + 3<<30 + gi<<24 + i)
				t := time.Now()
				if err := st.Insert(k); err != nil {
					errs[gi] = err
					return
				}
				lat[gi].add(time.Since(t))
			}
		}(gi)
	}
	wg.Wait()
	cerr := st.Close()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("store rung durable insert: %w", err)
		}
	}
	if cerr != nil {
		return fmt.Errorf("store rung close: %w", cerr)
	}
	all := merge(lat[0], lat[1])
	p50, _ := all.quantile(0.5)
	e.res.set("store.durable_insert_us", p50, "us")
	e.res.set("store.durable_inserts", float64(len(all)), "count")
	return nil
}
