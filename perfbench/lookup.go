package main

import (
	"fmt"
	"sync"
	"time"

	"repro/client"
	"repro/internal/analytic"
	"repro/internal/dataset"
	"repro/internal/hashing"
)

// runLookup: read-only 256-key ContainsBatch against one daemon whose
// filter is larger than L3, from closed-loop connections. Half of every
// batch are members (ranks below the preload), half never inserted.
func runLookup(e *env) error {
	w, ks := e.w, e.keyspace()
	ds, setupS, err := setupMedian(e, e.setups(), func() ([]*daemon, error) {
		dir := e.newDir("lookup")
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
				lookupSender(e, cl, ks, ks.WorkerRNG(c), deadline, traceEvery, cs[c])
			}(c, cl)
		}
		wg.Wait()
		return mergePhase(time.Since(start), cs, e.res), nil
	}

	if !e.traced {
		if err := measure(e.res, ds, drive, e.dur); err != nil {
			return err
		}
		if err := lookupFPR(e, d, ks); err != nil {
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
	return tracedRun(e, ds, drive, tracedHooks{op: "contains_batch", keysPer: w.Batch})
}

// lookupSender is one closed-loop connection: build a batch, send it,
// check every member read true, repeat until the deadline.
func lookupSender(e *env, cl *client.Client, ks *dataset.Keyspace, rng *hashing.RNG, deadline time.Time, traceEvery int, c *counter) {
	w := e.w
	keys := make([][]byte, w.Batch)
	bufs := make([][]byte, w.Batch)
	dst := make([]bool, 0, w.Batch)
	for time.Now().Before(deadline) && e.ctx.Err() == nil {
		for j := range keys {
			r := rng.Intn(w.Preload)
			if j%2 == 1 {
				r += absentBase
			}
			bufs[j] = ks.AppendKey(bufs[j][:0], r)
			keys[j] = bufs[j]
		}
		traced := traceEvery > 0 && c.ops%int64(traceEvery) == 0
		t0 := time.Now()
		var flags []bool
		var err error
		if traced {
			flags, err = cl.Traced(client.NewTrace()).ContainsBatch(keys)
		} else {
			flags, err = cl.ContainsBatchInto(keys, dst)
			dst = flags
		}
		rtt := time.Since(t0)
		c.ops++
		if err != nil {
			c.failed++
			c.fail("lookup batch: %v", err)
			return // the client is broken without reconnects
		}
		c.done(rtt, len(keys))
		if traced {
			c.tracedLat.add(rtt)
		}
		for j := 0; j < len(flags); j += 2 {
			if !flags[j] {
				c.fail("lookup: member %q read absent", keys[j])
			}
		}
	}
}

// lookupFPR probes the fixed FPR set after the timed phase and prints
// the measured rate next to the analytic expectation for the geometry.
func lookupFPR(e *env, d *daemon, ks *dataset.Keyspace) error {
	w := e.w
	cl, err := client.Dial(d.addr, client.WithTimeout(30*time.Second))
	if err != nil {
		return err
	}
	defer cl.Close()
	keys := make([][]byte, 0, w.Batch)
	var positives int
	var dst []bool
	for lo := 0; lo < w.FPRProbes; lo += w.Batch {
		keys = keys[:0]
		for r := lo; r < lo+w.Batch && r < w.FPRProbes; r++ {
			keys = append(keys, ks.Key(fprBase+r))
		}
		dst, err = cl.ContainsBatchInto(keys, dst)
		if err != nil {
			return fmt.Errorf("fpr probes: %w", err)
		}
		for _, ok := range dst {
			if ok {
				positives++
			}
		}
	}
	g := w.Geometry
	design, err := analytic.Design(g.ExpectedItems/g.Shards, g.MemoryBits/g.Shards, 64, 3, 1)
	if err != nil {
		return err
	}
	e.res.set("fpr", float64(positives)/float64(w.FPRProbes), "ratio")
	e.res.set("fpr_expected", design.FPR(w.Preload/g.Shards), "ratio")
	e.res.set("fpr_probes", float64(w.FPRProbes), "count")
	return nil
}
