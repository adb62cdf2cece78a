package main

import (
	"fmt"
	"sync"
	"time"

	"repro/client"
	"repro/internal/dataset"
)

// runIngest: durable churn from depth-32 pipelines on one daemon under
// -fsync always. 80% of requests insert a fresh key; 20% delete, in one
// 4-key batch, the four oldest keys of the connection's live set (keys
// inserted about W inserts earlier). Deletes thus remove exactly as many
// keys as inserts add and the population stays at W.
func runIngest(e *env) error {
	w, ks := e.w, e.keyspace()
	ds, setupS, err := setupMedian(e, e.setups(), func() ([]*daemon, error) {
		dir := e.newDir("ingest")
		if err := preload(dir, w.Geometry, w.Preload, ks); err != nil {
			return nil, err
		}
		d, err := startDaemon(e.ctx, e.bin, dir, w.DaemonFlags)
		if err != nil {
			return nil, err
		}
		return []*daemon{d}, nil
	})
	if err != nil {
		return err
	}
	e.res.set("setup_s", setupS, "s")
	d := ds[0]

	// Each connection owns the preloaded ranks congruent to its index,
	// oldest first, and appends its own acked inserts.
	lives := make([]*fifo, w.Connections)
	for c := range lives {
		lives[c] = &fifo{}
		for rk := c; rk < w.Preload; rk += w.Connections {
			lives[c].push(rk)
		}
	}
	fresh := make([]int, w.Connections)

	drive := func(dur time.Duration, traceEvery int) (phase, error) {
		cs := make([]*counter, w.Connections)
		var wg sync.WaitGroup
		deadline := time.Now().Add(dur)
		start := time.Now()
		for c := range cs {
			cl, err := client.Dial(d.addr, client.WithTimeout(30*time.Second))
			if err != nil {
				return phase{}, err
			}
			cs[c] = newCounter(start)
			wg.Add(1)
			go func(c int, cl *client.Client) {
				defer wg.Done()
				defer cl.Close()
				ingestSender(e, cl, ks, c, lives[c], &fresh[c], deadline, traceEvery, cs[c])
			}(c, cl)
		}
		wg.Wait()
		return mergePhase(time.Since(start), cs, e.res), nil
	}
	readBack := func() error { return ingestReadBack(e, d, ks, lives) }

	if e.traced {
		return tracedRun(e, ds, drive, tracedHooks{op: "insert", after: readBack, keysPer: 1})
	}
	if err := measure(e.res, ds, drive, e.dur); err != nil {
		return err
	}
	if err := readBack(); err != nil {
		return err
	}
	rss, err := rssMiB(ds)
	if err != nil {
		return err
	}
	e.res.set("rss_mib", rss, "MiB")
	d.stop()
	return nil
}

// fifo is a queue of key ranks.
type fifo struct {
	ranks []int
	head  int
}

func (f *fifo) push(r int) { f.ranks = append(f.ranks, r) }
func (f *fifo) len() int   { return len(f.ranks) - f.head }

func (f *fifo) pop() int {
	r := f.ranks[f.head]
	f.head++
	if f.head > 1<<16 && f.head*2 > len(f.ranks) {
		f.ranks = append(f.ranks[:0], f.ranks[f.head:]...)
		f.head = 0
	}
	return r
}

// ingestSender keeps one depth-D pipeline busy until the deadline. A
// latency sample is one Flush: from sending D requests to the last reply.
func ingestSender(e *env, cl *client.Client, ks *dataset.Keyspace, c int, live *fifo, fresh *int, deadline time.Time, traceEvery int, cnt *counter) {
	w := e.w
	rng := ks.WorkerRNG(c)
	p := cl.Pipeline()
	type queued struct {
		insert int   // rank inserted, or -1
		del    []int // ranks deleted
	}
	reqs := make([]queued, 0, w.Depth)
	flushes := int64(0)
	for time.Now().Before(deadline) && e.ctx.Err() == nil {
		reqs = reqs[:0]
		traced := traceEvery > 0 && flushes%int64(traceEvery) == 0
		flushes++
		for j := 0; j < w.Depth; j++ {
			if traced && j == 0 {
				p.SetTrace(client.NewTrace())
			}
			if rng.Float64() < w.Mix["insert_fresh"] || live.len() < 4 {
				rk := freshBase + c<<36 + *fresh
				*fresh++
				p.Insert(ks.Key(rk))
				reqs = append(reqs, queued{insert: rk})
			} else {
				del := []int{live.pop(), live.pop(), live.pop(), live.pop()}
				p.DeleteBatch(keyList(ks, del))
				reqs = append(reqs, queued{insert: -1, del: del})
			}
			if traced && j == 0 {
				p.SetTrace(client.Trace{})
			}
		}
		t0 := time.Now()
		res, err := p.Flush()
		rtt := time.Since(t0)
		cnt.ops += int64(len(reqs))
		if traced {
			cnt.tracedLat.add(rtt)
		}
		acked := 0
		for i, q := range reqs {
			pr := res[i]
			if pr.Err != nil {
				// Unacked: the key's state is unknown, so it leaves the
				// checked population.
				cnt.failed++
				cnt.fail("ingest: %v", pr.Err)
				continue
			}
			if q.insert >= 0 {
				live.push(q.insert)
				acked++
				continue
			}
			acked += len(q.del)
			for k, ok := range pr.Bools {
				if !ok {
					cnt.fail("ingest: delete of live key %q found it absent", ks.Key(q.del[k]))
				}
			}
		}
		cnt.done(rtt, acked)
		if err != nil {
			return
		}
	}
}

// ingestReadBack reads back every acked key still in the population and
// fails on any false negative.
func ingestReadBack(e *env, d *daemon, ks *dataset.Keyspace, lives []*fifo) error {
	cl, err := client.Dial(d.addr, client.WithTimeout(30*time.Second))
	if err != nil {
		return err
	}
	defer cl.Close()
	var ranks []int
	for _, l := range lives {
		ranks = append(ranks, l.ranks[l.head:]...)
	}
	missing, err := readBackRanks(ranks, ks, 256, cl.ContainsBatch)
	if err != nil {
		return fmt.Errorf("ingest read-back: %w", err)
	}
	e.res.set("checked_keys", float64(len(ranks)), "count")
	if missing > 0 {
		e.res.fail("ingest: %d of %d acked keys read absent", missing, len(ranks))
	}
	return nil
}

// readBackRanks asks contains for ranks in batches and counts absents.
func readBackRanks(ranks []int, ks *dataset.Keyspace, batch int, contains func([][]byte) ([]bool, error)) (int, error) {
	missing := 0
	for lo := 0; lo < len(ranks); lo += batch {
		hi := min(lo+batch, len(ranks))
		flags, err := contains(keyList(ks, ranks[lo:hi]))
		if err != nil {
			return 0, err
		}
		for _, ok := range flags {
			if !ok {
				missing++
			}
		}
	}
	return missing, nil
}
