package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	mpcbf "repro"
	"repro/internal/dataset"
	"repro/server"
)

// quiet discards the logs of stores the benchmark opens in-process.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// filterOptions is the daemon's filter geometry for g: mpcbfd's defaults
// (k=3, g=1, seed 1) at g's memory and population.
func filterOptions(g geometry) mpcbf.Options {
	return mpcbf.Options{MemoryBits: g.MemoryBits, ExpectedItems: g.ExpectedItems, HashFunctions: 3, MemoryAccesses: 1, Seed: 1}
}

// preload writes a data dir whose snapshot holds ranks [0, n) of ks,
// exactly what the daemon would hold after acking those inserts. The
// keys go straight into the store's filter and reach disk through the
// store's own final snapshot, skipping a WAL the snapshot would
// truncate anyway.
func preload(dir string, g geometry, n int, ks *dataset.Keyspace) error {
	st, err := server.OpenStore(server.StoreOptions{
		Dir: dir, Filter: filterOptions(g), Shards: g.Shards, Sync: server.SyncNever, Log: quiet,
	})
	if err != nil {
		return fmt.Errorf("preload open: %w", err)
	}
	f := st.Filter()
	const chunk = 1 << 16
	arena := make([]byte, 0, chunk*32)
	keys := make([][]byte, 0, chunk)
	for lo := 0; lo < n; lo += chunk {
		arena, keys = arena[:0], keys[:0]
		for r := lo; r < lo+chunk && r < n; r++ {
			start := len(arena)
			arena = ks.AppendKey(arena, r)
			keys = append(keys, arena[start:len(arena):len(arena)])
		}
		if err := f.InsertBatch(keys, runtime.GOMAXPROCS(0)); err != nil {
			st.Close()
			return fmt.Errorf("preload insert: %w", err)
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("preload snapshot: %w", err)
	}
	// Return the filter's pages before the daemon maps its own copy.
	debug.FreeOSMemory()
	return nil
}

// setupMedian runs setup up to n times, keeps the daemons of the last one
// and stops the others, and returns the median set-up time in seconds.
// Set-ups past the third run only while they have taken under
// setupBudget in all, so cheap set-ups get more samples.
func setupMedian(e *env, n int, setup func() ([]*daemon, error)) ([]*daemon, float64, error) {
	var times []float64
	var ds []*daemon
	var spent time.Duration
	for i := 0; i < n && (i < 3 || spent < setupBudget); i++ {
		for _, d := range ds {
			d.stop()
			os.RemoveAll(d.dir)
		}
		t0 := time.Now()
		var err error
		ds, err = setup()
		if err != nil {
			return nil, 0, err
		}
		spent += time.Since(t0)
		times = append(times, time.Since(t0).Seconds())
		if e.ctx.Err() != nil {
			return nil, 0, e.ctx.Err()
		}
	}
	return ds, median(times), nil
}

// setups is how many times an untraced run may set up to report the
// median set-up time; the traced run sets up once.
func (e *env) setups() int {
	if e.traced {
		return 1
	}
	return 7
}

const setupBudget = 5 * time.Second

// rssMiB sums the peak resident sets of ds.
func rssMiB(ds []*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		v, err := d.hwmMiB()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// daemonCPU sums the CPU seconds ds have used so far.
func daemonCPU(ds []*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		v, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// measure runs one untraced timed phase and reports it on r, with the
// daemons' CPU cost per key completed.
func measure(r *result, ds []*daemon, drive driveFunc, dur time.Duration) error {
	cpu0, err := daemonCPU(ds)
	if err != nil {
		return err
	}
	p, err := drive(dur, 0)
	if err != nil {
		return err
	}
	cpu1, err := daemonCPU(ds)
	if err != nil {
		return err
	}
	p.report(r)
	if p.keys > 0 {
		r.set("cpu_us_per_key", (cpu1-cpu0)*1e6/float64(p.keys), "us")
	}
	return nil
}

// counter tallies one sender's work in one timed phase.
type counter struct {
	start             time.Time // phase start
	ops, keys, failed int64
	ev                []event
	tracedLat         samples // client RTT of traced requests
	failures          []string
}

// event is one completed request: when it completed (ns into the
// phase), its latency, and how many keys it completed.
type event struct {
	at, lat int64
	keys    int32
}

func newCounter(start time.Time) *counter { return &counter{start: start} }

// done records a completed request.
func (c *counter) done(lat time.Duration, keys int) {
	c.ev = append(c.ev, event{int64(time.Since(c.start)), int64(lat), int32(keys)})
	c.keys += int64(keys)
}

func (c *counter) fail(format string, args ...any) {
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// phase is the merged outcome of one timed phase.
type phase struct {
	ops, keys, failed int64
	elapsed           time.Duration
	ev                []event
	lat, tracedLat    samples
}

func mergePhase(elapsed time.Duration, cs []*counter, r *result) phase {
	p := phase{elapsed: elapsed}
	var lats, tlats []samples
	for _, c := range cs {
		p.ops += c.ops
		p.keys += c.keys
		p.failed += c.failed
		p.ev = append(p.ev, c.ev...)
		var l samples
		for _, ev := range c.ev {
			l = append(l, ev.lat)
		}
		lats = append(lats, l)
		tlats = append(tlats, c.tracedLat)
		for _, f := range c.failures {
			r.fail("%s", f)
		}
	}
	p.lat = merge(lats...)
	p.tracedLat = merge(tlats...)
	return p
}

// windows is how many equal slices a timed phase is cut into. Latency
// percentiles are taken per slice and reported as the median slice, so
// one stalled second moves a run's figures less than it would move a
// whole-run percentile.
const windows = 5

// report sets the end-to-end metrics of an untraced phase on r.
func (p phase) report(r *result) {
	r.Attempted += p.ops
	r.Failed += p.failed
	r.set("requests", float64(p.ops), "count")
	if p.ops > 0 {
		r.set("err_ratio", float64(p.failed)/float64(p.ops), "ratio")
	}
	span := p.elapsed / windows
	lats := make([]samples, windows)
	for _, ev := range p.ev {
		i := min(int(ev.at/int64(span)), windows-1)
		lats[i] = append(lats[i], ev.lat)
	}
	var p50s, p99s []float64
	minBeyond := -1
	for i := range lats {
		s := merge(lats[i])
		p50, _ := s.quantile(0.50)
		p99, beyond := s.quantile(0.99)
		p50s, p99s = append(p50s, p50), append(p99s, p99)
		if minBeyond < 0 || beyond < minBeyond {
			minBeyond = beyond
		}
	}
	r.set("ops_per_s", float64(p.keys)/p.elapsed.Seconds(), "keys/s")
	r.set("p50_us", median(p50s), "us")
	r.set("latency_samples", float64(len(p.lat)), "count")
	r.set("p99_us_beyond", float64(minBeyond), "count")
	if minBeyond >= 10 {
		r.set("p99_us", median(p99s), "us")
	} else {
		r.Notes = append(r.Notes, "p99_us withheld: a window has fewer than 10 samples beyond it")
	}
	all50, _ := p.lat.quantile(0.50)
	all99, _ := p.lat.quantile(0.99)
	r.set("run_p50_us", all50, "us")
	r.set("run_p99_us", all99, "us")
}
