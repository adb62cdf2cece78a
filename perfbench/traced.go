package main

import (
	"fmt"
	"time"

	"repro/client"
	"repro/cluster"
	"repro/internal/hashing"
	"repro/server"
	"repro/server/wire"
)

// driveFunc runs one timed phase of a workload for dur, sending 1 in
// traceEvery requests inside a TRACE envelope (0: none).
type driveFunc func(dur time.Duration, traceEvery int) (phase, error)

// tracedHooks are the workload-specific parts of a traced run.
type tracedHooks struct {
	op      string       // wire op whose spans make the ladder
	ns      string       // namespace the live probes use ("" creates one)
	after   func() error // end-of-run correctness checks, daemons still up
	keysPer int          // keys per request of op, for per-key rungs
}

// tracedRun runs the workload untraced for half the time and traced for
// the other half, then measures each layer: server stages from
// /debug/traces, daemon counters from /metrics, client, cluster and
// namespace costs by timing probes against the idle daemons, and, once
// the daemons are stopped, the in-process rungs on the workload's
// geometry. End-to-end metrics are not reported from this run.
func tracedRun(e *env, ds []*daemon, drive driveFunc, h tracedHooks) error {
	before, err := scrapeAll(ds)
	if err != nil {
		return err
	}
	half := e.dur / 2
	pu, err := drive(half, 0)
	if err != nil {
		return err
	}
	col := collectSpans(ds)
	pt, err := drive(half, e.w.TraceEvery)
	spans, dropped := col.finish()
	if err != nil {
		return err
	}
	after, err := scrapeAll(ds)
	if err != nil {
		return err
	}
	e.res.Attempted += pu.ops + pt.ops
	e.res.Failed += pu.failed + pt.failed
	if h.after != nil {
		if err := h.after(); err != nil {
			return err
		}
	}

	r := e.res
	p50u, _ := pu.lat.quantile(0.5)
	p50t, _ := pt.lat.quantile(0.5)
	r.set("bench.p50_untraced_us", p50u, "us")
	r.set("bench.p50_traced_us", p50t, "us")
	r.set("bench.trace_overhead_us", p50t-p50u, "us")
	r.set("bench.spans", float64(len(spans)), "count")
	r.set("bench.spans_dropped", float64(dropped), "count")
	serverStages(r, spans, h.op)
	daemonCounters(r, before, after)
	if err := liveProbes(e, ds, h.ns); err != nil {
		return err
	}
	for _, d := range ds {
		d.stop()
	}
	if err := inProcessRungs(e, ds[0].dir); err != nil {
		return err
	}
	rtt := medianUs(pt.tracedLat)
	codec := r.Metrics["wire.key_client_ns"].Value / 1e3
	if h.keysPer > 1 {
		codec = r.Metrics["wire.batch_client_ns"].Value * float64(h.keysPer) / 1e3
	}
	r.set("client.traced_rtt_us", rtt, "us")
	r.set("server.residual_us", rtt-r.Metrics["server.total_us"].Value-codec, "us")
	if e.name != "ingest" {
		printLadder(e, p50u, codec, h.keysPer)
	}
	return nil
}

func scrapeAll(ds []*daemon) (promSample, error) {
	sum := promSample{}
	for _, d := range ds {
		m, err := d.metrics()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", d.http, err)
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// serverStages sets the server.* medians over the spans of op.
func serverStages(r *result, spans []server.TraceEntry, op string) {
	var dec, fil, wal, fs, enc, tot []float64
	for _, s := range spans {
		if s.Op != op || s.Failed {
			continue
		}
		dec = append(dec, float64(s.DecodeNs)/1e3)
		fil = append(fil, float64(s.FilterNs)/1e3)
		wal = append(wal, float64(s.WALNs)/1e3)
		fs = append(fs, float64(s.FsyncNs)/1e3)
		enc = append(enc, float64(s.EncodeNs)/1e3)
		tot = append(tot, float64(s.TotalNs)/1e3)
	}
	r.set("server.spans_"+op, float64(len(tot)), "count")
	r.set("server.decode_us", median(dec), "us")
	r.set("server.filter_us", median(fil), "us")
	r.set("server.wal_us", median(wal), "us")
	r.set("server.fsync_us", median(fs), "us")
	r.set("server.encode_us", median(enc), "us")
	r.set("server.total_us", median(tot), "us")
}

// daemonCounters sets the store.* and ns.* counters read from /metrics
// over the run, summed over the workload's daemons.
func daemonCounters(r *result, before, after promSample) {
	recs := delta(before, after, "mpcbfd_wal_records_total")
	syncs := delta(before, after, "mpcbfd_wal_syncs_total")
	kpf := 0.0
	if syncs > 0 {
		kpf = recs / syncs
	}
	r.set("store.keys_per_fsync", kpf, "keys")
	fsync, n := histMedianDelta(before, after, "mpcbfd_wal_fsync_duration_seconds")
	r.set("store.fsync_us", fsync*1e6, "us")
	r.set("store.fsyncs", n, "count")
	r.set("store.snapshots", delta(before, after, "mpcbfd_snapshots_total"), "count")
	r.set("ns.evictions", delta(before, after, "mpcbfd_ns_evictions_total"), "count")
	r.set("ns.recoveries", delta(before, after, "mpcbfd_ns_recoveries_total"), "count")
}

// ownerOf returns the index in addrs of the primary that cluster.Client
// routes (ns, key) to: rendezvous hashing with per-node seeds derived
// from the address and perturbed by the namespace (cluster/client.go
// routeIn, cluster/namespace.go nsSeed). Traced namespaced requests need
// it because the cluster client has no traced namespace view; a
// mismatch would show as false negatives in the end-of-run read-back,
// which goes through cluster.Client.
func ownerOf(addrs []string, ns, key []byte) int {
	var nsH uint64
	if len(ns) > 0 {
		nsH = hashing.XXHash64(ns, 0xc2b2ae3d27d4eb4f)
	}
	best, bestScore := 0, uint64(0)
	for i, a := range addrs {
		seed := hashing.XXHash64([]byte(a), 0x9e3779b97f4a7c15)
		if s := hashing.XXHash64(key, seed^nsH); i == 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

const probeRounds = 1500

// liveProbes times single requests against the idle daemons: the client
// round trips, a pipelined flush, the namespace envelope, cluster
// routing and fan-out, and recovery of evicted namespaces.
func liveProbes(e *env, ds []*daemon, nsName string) error {
	ks := e.keyspace()
	addrs := make([]string, len(ds))
	direct := make([]*client.Client, len(ds))
	for i, d := range ds {
		addrs[i] = d.addr
		cl, err := client.Dial(d.addr, client.WithTimeout(30*time.Second))
		if err != nil {
			return err
		}
		defer cl.Close()
		direct[i] = cl
	}
	nodes := make([]cluster.Node, len(ds))
	for i, a := range addrs {
		nodes[i] = cluster.Node{Primary: a}
	}
	cc, err := cluster.NewClient(cluster.ClientConfig{Nodes: nodes, Timeout: 30 * time.Second})
	if err != nil {
		return err
	}
	defer cc.Close()
	cl := direct[0]
	r := e.res
	key := func(i int) []byte { return ks.Key(rungBase + i) }

	// client.contains_rtt_us / client.batch_rtt_us on one idle connection.
	var single, batch samples
	for i := 0; i < probeRounds; i++ {
		t0 := time.Now()
		if _, err := cl.Contains(key(i)); err != nil {
			return fmt.Errorf("probe contains: %w", err)
		}
		single.add(time.Since(t0))
	}
	keys256 := make([][]byte, 256)
	for i := range keys256 {
		keys256[i] = key(i)
	}
	var dst []bool
	for i := 0; i < probeRounds/4; i++ {
		t0 := time.Now()
		if dst, err = cl.ContainsBatchInto(keys256, dst); err != nil {
			return fmt.Errorf("probe batch: %w", err)
		}
		batch.add(time.Since(t0))
	}
	r.set("client.contains_rtt_us", medianUs(single), "us")
	r.set("client.batch_rtt_us", medianUs(batch), "us")

	// client.flush_us: 16 insert+delete pairs in one pipeline leave the
	// filter as it was.
	var flush samples
	p := cl.Pipeline()
	for i := 0; i < probeRounds/10; i++ {
		for j := 0; j < 16; j++ {
			k := key(1_000_000 + i*16 + j)
			p.Insert(k)
			p.Delete(k)
		}
		t0 := time.Now()
		res, err := p.Flush()
		if err != nil {
			return fmt.Errorf("probe flush: %w", err)
		}
		flush.add(time.Since(t0))
		for _, pr := range res {
			if pr.Err != nil {
				return fmt.Errorf("probe flush: %w", pr.Err)
			}
		}
	}
	r.set("client.flush_us", medianUs(flush), "us")

	// ns.envelope_us: the same Contains with and without the NAMESPACED
	// envelope, on a resident namespace.
	if nsName == "" {
		nsName = "perfbench-probe"
		for _, c := range direct {
			if err := c.CreateNamespace(nsName, wire.NsConfig{}); err != nil {
				return fmt.Errorf("probe namespace: %w", err)
			}
		}
	}
	nsb := []byte(nsName)
	var plain, enveloped samples
	for i := 0; i < probeRounds; i++ {
		k := key(i)
		t0 := time.Now()
		if _, err := cl.Contains(k); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := cl.Namespace(nsName).Contains(k); err != nil {
			return err
		}
		plain.add(t1.Sub(t0))
		enveloped.add(time.Since(t1))
	}
	r.set("ns.envelope_us", medianUs(enveloped)-medianUs(plain), "us")

	// cluster.route_us: Contains via cluster.Client minus the same
	// Contains sent straight to the owning node.
	var via, straight samples
	for i := 0; i < probeRounds; i++ {
		k := key(i)
		t0 := time.Now()
		if _, err := cc.Namespace(nsName).Contains(k); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := direct[ownerOf(addrs, nsb, k)].Namespace(nsName).Contains(k); err != nil {
			return err
		}
		via.add(t1.Sub(t0))
		straight.add(time.Since(t1))
	}
	r.set("cluster.route_us", medianUs(via)-medianUs(straight), "us")

	// cluster.fanout_us: a 16-key batch via the cluster minus its slower
	// single-node sub-batch sent straight to its owner.
	var fan, slowest samples
	for i := 0; i < probeRounds/4; i++ {
		keys := make([][]byte, 16)
		sub := make([][][]byte, len(ds))
		for j := range keys {
			keys[j] = key(i*16 + j)
			o := ownerOf(addrs, nsb, keys[j])
			sub[o] = append(sub[o], keys[j])
		}
		t0 := time.Now()
		if _, err := cc.Namespace(nsName).ContainsBatch(keys); err != nil {
			return err
		}
		fan.add(time.Since(t0))
		var worst time.Duration
		for o, ks := range sub {
			if len(ks) == 0 {
				continue
			}
			t1 := time.Now()
			if _, err := direct[o].Namespace(nsName).ContainsBatch(ks); err != nil {
				return err
			}
			worst = max(worst, time.Since(t1))
		}
		slowest.add(worst)
	}
	r.set("cluster.fanout_us", medianUs(fan)-medianUs(slowest), "us")

	return recoverProbe(e, direct)
}

// recoverProbe times the first request to each namespace a daemon has
// evicted (ns.recover_us); only tenants runs with a quota.
func recoverProbe(e *env, direct []*client.Client) error {
	if e.w.Namespaces == 0 {
		return nil
	}
	var rec samples
	for _, c := range direct {
		for i := 0; i < e.w.Namespaces && len(rec) < 40; i++ {
			name := nsName(i)
			st, err := c.NamespaceStats(name)
			if err != nil {
				return err
			}
			if st.Resident {
				continue
			}
			t0 := time.Now()
			if _, err := c.Namespace(name).Contains([]byte("recover-probe")); err != nil {
				return err
			}
			rec.add(time.Since(t0))
		}
	}
	e.res.set("ns.recover_samples", float64(len(rec)), "count")
	if len(rec) > 0 {
		e.res.set("ns.recover_us", medianUs(rec), "us")
	}
	return nil
}

// printLadder prints the blocking path of one request in path order,
// each rung with its share of the untraced p50, and how much of the
// end-to-end latency the rungs leave unexplained.
func printLadder(e *env, p50 float64, codec float64, keysPer int) {
	m := e.res.Metrics
	v := func(n string) float64 { return m[n].Value }
	perKey := func(n string) float64 { return v(n) * float64(keysPer) / 1e3 }
	type rung struct {
		name string
		us   float64
		sub  bool // nested inside the rung above; not summed
	}
	var rungs []rung
	if e.name == "tenants" {
		// An open-loop request first waits for its sender: the Go timer
		// wakes late and the two senders share one connection per node.
		// Then it goes through cluster.Client; the traced requests, whose
		// server stages follow, went straight to the owner.
		rungs = append(rungs,
			rung{"bench.late_p50_us (send lateness)", v("bench.late_p50_us"), false},
			rung{"cluster.route_us", v("cluster.route_us"), false})
	}
	rungs = append(rungs,
		rung{"client encode+decode (wire codec, client side)", codec, false},
		rung{"server.decode_us (not timed for TRACE-enveloped requests)", v("server.decode_us"), false},
		rung{"server.filter_us", v("server.filter_us"), false},
		rung{"  store.contains_batch_ns x keys", perKey("store.contains_batch_ns"), true},
		rung{"  mpcbf.contains_batch_ns x keys", perKey("mpcbf.contains_batch_ns"), true},
		rung{"  core.contains_ns x keys", perKey("core.contains_ns"), true},
		rung{"  hcbf.count_ns x keys", perKey("hcbf.count_ns"), true},
		rung{"server.wal_us", v("server.wal_us"), false},
		rung{"server.fsync_us", v("server.fsync_us"), false},
		rung{"server.encode_us", v("server.encode_us"), false},
	)
	if e.name == "tenants" {
		// Already inside the decode stage and the round trip.
		rungs = append(rungs, rung{"  ns.envelope_us", v("ns.envelope_us"), true})
	}
	fmt.Printf("ladder %s (request of %d key(s); untraced p50_us %.1f)\n", e.name, keysPer, p50)
	sum := 0.0
	for _, rg := range rungs {
		if !rg.sub {
			sum += rg.us
		}
		fmt.Printf("  %-48s %10.2f us %6.1f%%\n", rg.name, rg.us, 100*rg.us/p50)
	}
	res := v("server.residual_us")
	fmt.Printf("  %-48s %10.2f us %6.1f%%\n", "server.residual_us (network, handoff, scheduling)", res, 100*res/p50)
	fmt.Printf("  rungs without the residual add up to %.1f%% of p50_us; the residual is %.1f%% (goal: within 10%%, not gated)\n",
		100*sum/p50, 100*res/p50)
	fmt.Printf("  server.filter_us / p50_us = %.3f caps what an hcbf/core/mpcbf gain can show\n", v("server.filter_us")/p50)
	e.res.set("ladder.rung_share", sum/p50, "ratio")
	e.res.set("ladder.residual_share", res/p50, "ratio")
	e.res.set("ladder.filter_share", v("server.filter_us")/p50, "ratio")
}
