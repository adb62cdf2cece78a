package main

import (
	"fmt"
	"math"
	"sync"
	"syscall"
	"time"

	"repro/client"
	"repro/cluster"
	"repro/internal/dataset"
	"repro/server/wire"
)

func nsName(i int) string { return fmt.Sprintf("t%03d", i) }

// newCluster returns a cluster client over the daemons' primaries.
func newCluster(ds []*daemon) (*cluster.Client, []string, error) {
	addrs := make([]string, len(ds))
	nodes := make([]cluster.Node, len(ds))
	for i, d := range ds {
		addrs[i] = d.addr
		nodes[i] = cluster.Node{Primary: d.addr}
	}
	cc, err := cluster.NewClient(cluster.ClientConfig{Nodes: nodes, Timeout: 30 * time.Second})
	return cc, addrs, err
}

// tenantSender is one open-loop sender's own view of what it inserted:
// per namespace, its acked live keys, oldest first.
type tenantSender struct {
	live  []*fifo
	fresh int
	late  samples
	byOp  [4]samples // latency per op kind, for the result line
}

// runTenants: an open loop at a fixed aggregate rate through one
// cluster.Client over two primaries, single-key ops on many namespaces
// with Zipf popularity, under a namespace quota that forces eviction.
// Latency runs from each request's scheduled send time.
func runTenants(e *env) error {
	w, ks := e.w, e.keyspace()
	ds, setupS, err := setupMedian(e, e.setups(), func() ([]*daemon, error) {
		var ds []*daemon
		for i := 0; i < w.Daemons; i++ {
			d, err := startDaemon(e.ctx, e.bin, e.newDir("tenants"), w.DaemonFlags)
			if err != nil {
				return nil, err
			}
			ds = append(ds, d)
		}
		cc, _, err := newCluster(ds)
		if err != nil {
			return nil, err
		}
		defer cc.Close()
		for i := 0; i < w.Namespaces; i++ {
			if err := cc.CreateNamespace(nsName(i), wire.NsConfig{}); err != nil {
				return nil, fmt.Errorf("create namespace: %w", err)
			}
		}
		return ds, nil
	})
	if err != nil {
		return err
	}
	e.res.set("setup_s", setupS, "s")

	cc, addrs, err := newCluster(ds)
	if err != nil {
		return err
	}
	defer cc.Close()
	// Traced requests go straight to the owning node (see ownerOf); these
	// are each daemon's second connection.
	direct := make([]*client.Client, len(ds))
	for i, d := range ds {
		if direct[i], err = client.Dial(d.addr, client.WithTimeout(30*time.Second)); err != nil {
			return err
		}
		defer direct[i].Close()
	}
	nsKs, err := dataset.NewKeyspace(dataset.KeyspaceConfig{N: w.Namespaces, ZipfS: w.ZipfS, Seed: e.seed})
	if err != nil {
		return err
	}
	senders := make([]*tenantSender, w.Connections)
	for s := range senders {
		senders[s] = &tenantSender{live: make([]*fifo, w.Namespaces)}
		for i := range senders[s].live {
			senders[s].live[i] = &fifo{}
		}
	}
	t := &tenantsRun{e: e, ks: ks, nsKs: nsKs, cc: cc, direct: direct, addrs: addrs}

	drive := func(dur time.Duration, traceEvery int) (phase, error) {
		cs := make([]*counter, len(senders))
		var wg sync.WaitGroup
		start := time.Now()
		for s := range senders {
			cs[s] = newCounter(start)
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				t.send(s, senders[s], start, start.Add(dur), traceEvery, cs[s])
			}(s)
		}
		wg.Wait()
		return mergePhase(time.Since(start), cs, e.res), nil
	}
	readBack := func() error { return t.readBack(senders) }

	if e.traced {
		closeLoad := func() error {
			setLateness(e.res, senders)
			err := readBack()
			// The layer probes that follow dial their own connections.
			cc.Close()
			for _, c := range direct {
				c.Close()
			}
			return err
		}
		return tracedRun(e, ds, drive, tracedHooks{op: "contains", ns: nsName(0), after: closeLoad, keysPer: 1})
	}
	before, err := scrapeAll(ds)
	if err != nil {
		return err
	}
	if err := measure(e.res, ds, drive, e.dur); err != nil {
		return err
	}
	setLateness(e.res, senders)
	for op, name := range []string{"contains", "insert", "delete", "contains_batch"} {
		var byOp []samples
		for _, s := range senders {
			byOp = append(byOp, s.byOp[op])
		}
		p99, _ := merge(byOp...).quantile(0.99)
		e.res.set("tenants."+name+"_p99_us", p99, "us")
	}
	after, err := scrapeAll(ds)
	if err != nil {
		return err
	}
	e.res.set("ns.evictions", delta(before, after, "mpcbfd_ns_evictions_total"), "count")
	e.res.set("ns.recoveries", delta(before, after, "mpcbfd_ns_recoveries_total"), "count")
	e.res.set("ns.resident", after["mpcbfd_ns_resident_count"], "count")
	if err := readBack(); err != nil {
		return err
	}
	rss, err := rssMiB(ds)
	if err != nil {
		return err
	}
	e.res.set("rss_mib", rss, "MiB")
	for _, d := range ds {
		d.stop()
	}
	return nil
}

// sleepUntil blocks until t. time.Sleep wakes from the runtime's
// millisecond-grained poller, which made sends leave about 0.5 ms late
// at the median; nanosleep blocks only this thread and wakes within the
// kernel's timer slack. It returns early when a signal (such as the
// runtime's preemption signal) interrupts it, hence the loop.
func sleepUntil(t time.Time) {
	for wait := time.Until(t); wait > 0; wait = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil)
	}
}

// setLateness reports how far behind schedule the senders sent.
func setLateness(r *result, senders []*tenantSender) {
	var late []samples
	for _, s := range senders {
		late = append(late, s.late)
	}
	all := merge(late...)
	p50, _ := all.quantile(0.50)
	p99, _ := all.quantile(0.99)
	r.set("bench.late_p50_us", p50, "us")
	r.set("bench.late_p99_us", p99, "us")
}

type tenantsRun struct {
	e      *env
	ks     *dataset.Keyspace
	nsKs   *dataset.Keyspace
	cc     *cluster.Client
	direct []*client.Client
	addrs  []string
}

// send runs one open-loop sender: requests are scheduled with seeded
// exponential gaps at its share of the aggregate rate, sent when due or
// as soon as the previous reply is in if the sender runs late.
func (t *tenantsRun) send(s int, st *tenantSender, start, deadline time.Time, traceEvery int, c *counter) {
	w, ks := t.e.w, t.ks
	rng := ks.WorkerRNG(1000 + s)
	rate := w.Rate / float64(w.Connections)
	due := start
	for t.e.ctx.Err() == nil {
		due = due.Add(time.Duration(-math.Log(1-rng.Float64()) / rate * 1e9))
		if due.After(deadline) {
			return
		}
		if time.Now().After(deadline.Add(time.Second)) {
			// Due before the end but still unsent a second after it:
			// missed, like a refusal.
			c.ops++
			c.failed++
			continue
		}
		sleepUntil(due)
		st.late.add(time.Since(due))
		ni := t.nsKs.Rank(rng)
		name := nsName(ni)
		live := st.live[ni]
		traced := traceEvery > 0 && c.ops%int64(traceEvery) == 0
		var tc client.Trace
		if traced {
			tc = client.NewTrace()
		}
		var err error
		keys := 1
		op := pickTenantOp(w.Mix, rng.Float64())
		if op == opDelete && live.len() == 0 {
			op = opContains
		}
		switch op {
		case opContains:
			rk, member := absentBase+rng.Intn(1<<30), false
			if live.len() > 0 && rng.Intn(2) == 0 {
				rk, member = live.ranks[live.head+rng.Intn(live.len())], true
			}
			k := ks.Key(rk)
			var ok bool
			t0 := time.Now()
			if traced {
				ok, err = t.direct[ownerOf(t.addrs, []byte(name), k)].Namespace(name).Traced(tc).Contains(k)
				c.tracedLat.add(time.Since(t0))
			} else {
				ok, err = t.cc.Namespace(name).Contains(k)
			}
			if err == nil && member && !ok {
				c.fail("tenants: member %q of %s read absent", k, name)
			}
		case opInsert:
			rk := freshBase + s<<36 + st.fresh
			st.fresh++
			k := ks.Key(rk)
			if traced {
				err = t.direct[ownerOf(t.addrs, []byte(name), k)].Namespace(name).Traced(tc).Insert(k)
			} else {
				err = t.cc.Namespace(name).Insert(k)
			}
			if err == nil {
				live.push(rk)
			}
		case opDelete:
			k := ks.Key(live.pop())
			if traced {
				err = t.direct[ownerOf(t.addrs, []byte(name), k)].Namespace(name).Traced(tc).Delete(k)
			} else {
				err = t.cc.Namespace(name).Delete(k)
			}
		default:
			ranks := make([]int, w.Batch)
			for j := range ranks {
				ranks[j] = absentBase + rng.Intn(1<<30)
				if j%2 == 0 && live.len() > 0 {
					ranks[j] = live.ranks[live.head+rng.Intn(live.len())]
				}
			}
			batch := keyList(ks, ranks)
			var flags []bool
			if traced {
				flags, err = t.tracedBatch(name, tc, batch)
			} else {
				flags, err = t.cc.Namespace(name).ContainsBatch(batch)
			}
			keys = len(batch)
			for j := 0; err == nil && j < len(flags); j += 2 {
				if live.len() > 0 && !flags[j] {
					c.fail("tenants: member %q of %s read absent in a batch", batch[j], name)
				}
			}
		}
		c.ops++
		if err != nil {
			c.failed++
			c.fail("tenants: %v", err)
			continue
		}
		c.done(time.Since(due), keys)
		st.byOp[op].add(time.Since(due))
	}
}

// tracedBatch fans a traced batch out to the owning nodes concurrently,
// as cluster.Client would, and stitches the flags back in order.
func (t *tenantsRun) tracedBatch(name string, tc client.Trace, keys [][]byte) ([]bool, error) {
	sub := make([][][]byte, len(t.addrs))
	idx := make([][]int, len(t.addrs))
	for i, k := range keys {
		o := ownerOf(t.addrs, []byte(name), k)
		sub[o] = append(sub[o], k)
		idx[o] = append(idx[o], i)
	}
	out := make([]bool, len(keys))
	errs := make([]error, len(t.addrs))
	var wg sync.WaitGroup
	for o := range sub {
		if len(sub[o]) == 0 {
			continue
		}
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			flags, err := t.direct[o].Namespace(name).Traced(tc).ContainsBatch(sub[o])
			if err != nil {
				errs[o] = err
				return
			}
			for j, f := range flags {
				out[idx[o][j]] = f
			}
		}(o)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readBack reads back, per namespace through the cluster client, every
// acked key the senders still hold and fails on any false negative.
func (t *tenantsRun) readBack(senders []*tenantSender) error {
	missing, total := 0, 0
	for ni := 0; ni < t.e.w.Namespaces; ni++ {
		var ranks []int
		for _, s := range senders {
			l := s.live[ni]
			ranks = append(ranks, l.ranks[l.head:]...)
		}
		total += len(ranks)
		m, err := readBackRanks(ranks, t.ks, 256, t.cc.Namespace(nsName(ni)).ContainsBatch)
		if err != nil {
			return fmt.Errorf("tenants read-back: %w", err)
		}
		missing += m
	}
	t.e.res.set("checked_keys", float64(total), "count")
	if missing > 0 {
		t.e.res.fail("tenants: %d of %d acked keys read absent", missing, total)
	}
	return nil
}

const (
	opContains = iota
	opInsert
	opDelete
	opBatch
)

// pickTenantOp maps a uniform draw to the tenants mix.
func pickTenantOp(mix map[string]float64, u float64) int {
	for _, o := range []struct {
		name string
		op   int
	}{{"contains", opContains}, {"insert", opInsert}, {"delete_own", opDelete}} {
		if u < mix[o.name] {
			return o.op
		}
		u -= mix[o.name]
	}
	return opBatch
}
