// Package loadgen generates reproducible load against one mpcbfd node
// or a routed cluster. A Config fully determines the workload: the
// seeded keyspace (repro/internal/dataset), the op mix, the loop model
// (closed: fixed concurrency, each worker issues its next op when the
// previous returns; open: a target aggregate rate with send times fixed
// on a schedule), and the request shape (single-key, batch, or
// pipelined). Per-op latencies land in power-of-two histograms
// (repro/server.Histogram) and come back as p50/p90/p99 summaries; the
// run's Manifest — embedded in every Result — is everything needed to
// reproduce it.
//
// Open-loop latency is measured from each op's scheduled send time, not
// its actual send, so a stalled server shows up as queueing delay
// instead of being silently absorbed (no coordinated omission).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/cluster"
	"repro/internal/dataset"
	"repro/internal/hashing"
	"repro/server"
)

// Op is one workload operation kind.
type Op uint8

const (
	OpInsert Op = iota
	OpDelete
	OpContains
	OpInsertTTL
	numOps
)

func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpContains:
		return "contains"
	case OpInsertTTL:
		return "insert_ttl"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMutation reports whether the op changes filter state (and therefore
// participates in acked-loss accounting).
func (o Op) IsMutation() bool { return o != OpContains }

// Mix is the op distribution as relative weights; they need not sum to
// anything in particular. A zero Mix is invalid.
type Mix struct {
	Insert    float64 `json:"insert"`
	Delete    float64 `json:"delete"`
	Contains  float64 `json:"contains"`
	InsertTTL float64 `json:"insert_ttl"`
}

// ParseMix parses "insert=40,contains=55,delete=4,insert_ttl=1".
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("loadgen: mix term %q is not name=weight", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w < 0 {
			return m, fmt.Errorf("loadgen: mix weight %q invalid", part)
		}
		switch name {
		case "insert":
			m.Insert = w
		case "delete":
			m.Delete = w
		case "contains":
			m.Contains = w
		case "insert_ttl":
			m.InsertTTL = w
		default:
			return m, fmt.Errorf("loadgen: unknown op %q in mix", name)
		}
	}
	return m, nil
}

func (m Mix) String() string {
	return fmt.Sprintf("insert=%g,delete=%g,contains=%g,insert_ttl=%g",
		m.Insert, m.Delete, m.Contains, m.InsertTTL)
}

// cumulative returns the normalized cumulative weights for op drawing.
func (m Mix) cumulative() ([numOps]float64, error) {
	w := [numOps]float64{m.Insert, m.Delete, m.Contains, m.InsertTTL}
	var total float64
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return w, errors.New("loadgen: mix has no positive weight")
	}
	var cum [numOps]float64
	run := 0.0
	for i, v := range w {
		run += v / total
		cum[i] = run
	}
	cum[numOps-1] = 1 // guard against float drift
	return cum, nil
}

// Config fully describes one load-generation run.
type Config struct {
	// Addrs lists the target nodes. One address drives a single node
	// through repro/client; several drive a rendezvous-routed cluster
	// through repro/cluster. Each entry is "primary" or
	// "primary/replica1/replica2..." (replicas serve reads).
	Addrs []string
	// Namespaces fans ops out across named tenants, on one node or
	// across the cluster; empty targets the default namespace.
	Namespaces []string
	// OpenLoop switches from closed-loop (Concurrency workers, next op
	// when the previous returns) to open-loop (ops scheduled at Rate
	// regardless of completions, Concurrency senders).
	OpenLoop bool
	// Rate is the aggregate target ops/sec (open loop only).
	Rate float64
	// Concurrency is the worker count (default 8).
	Concurrency int
	// Duration bounds the run (default 5s).
	Duration time.Duration
	// Mix is the op distribution.
	Mix Mix
	// Batch > 1 issues every op as a batch of that many keys.
	Batch int
	// PipelineDepth > 0 enqueues that many ops per flush on a pipelined
	// connection (single-node, default-namespace targets only).
	PipelineDepth int
	// Keyspace configures the seeded key generator. A zero Seed there
	// falls back to Seed here.
	Keyspace dataset.KeyspaceConfig
	// Seed derives every per-worker stream (ops, keys, namespaces).
	Seed uint64
	// TTL is the per-key lifetime used by insert_ttl ops (default 60s).
	TTL time.Duration
	// Reconnect enables transparent redial on the underlying clients —
	// required when the run rides through daemon kills or partitions.
	Reconnect bool
	// OnMutation, when set, observes every mutation outcome: err is nil
	// (acked), client.ErrMaybeApplied (unknown), or a hard failure. The
	// key slice is only valid during the call. Used by the fault
	// simulation for acked-loss accounting.
	OnMutation func(op Op, key []byte, err error)
	// TraceSample > 0 wraps 1 in every TraceSample ops (per worker) in a
	// TRACE envelope with a fresh trace id; the slowest traced ops come
	// back in Result.SlowTraces, ready to paste into mpcbf-trace. 0
	// disables tracing.
	TraceSample int
	// Grow ramps the drawn keyspace through doublings over the run: ops
	// draw from a prefix of the keyspace that starts at
	// Keyspace.N >> GrowSteps and doubles at each phase boundary until
	// the final phase spans the whole keyspace. Against an elastic
	// daemon the ramp pushes the filter through generation growth
	// mid-run; the phase curve is recorded in the manifest.
	Grow bool
	// GrowSteps is the number of doublings (default 3: the run's final
	// phase draws from 8x its initial prefix).
	GrowSteps int
}

func (c *Config) setDefaults() error {
	if len(c.Addrs) == 0 {
		return errors.New("loadgen: no target addresses")
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.TTL <= 0 {
		c.TTL = time.Minute
	}
	if c.Keyspace.Seed == 0 {
		c.Keyspace.Seed = c.Seed
	}
	if c.OpenLoop && c.Rate <= 0 {
		return errors.New("loadgen: open loop needs a positive -rate")
	}
	routed := len(c.Addrs) > 1 || strings.Contains(c.Addrs[0], "/")
	if c.PipelineDepth > 0 && (routed || len(c.Namespaces) > 0 || c.Batch > 1) {
		return errors.New("loadgen: pipeline mode is single-node, default-namespace, single-key only")
	}
	if c.Grow {
		if c.GrowSteps <= 0 {
			c.GrowSteps = 3
		}
		if c.Keyspace.N>>c.GrowSteps < 1 {
			return fmt.Errorf("loadgen: keyspace of %d keys cannot ramp through %d doublings", c.Keyspace.N, c.GrowSteps)
		}
	}
	return nil
}

// target is the minimal op surface a worker drives. Every method takes
// the op's trace context (zero = untraced); a zero context costs
// nothing on any implementation.
type target interface {
	insert(tc client.Trace, key []byte) error
	contains(tc client.Trace, key []byte) error
	insertTTL(tc client.Trace, key []byte, ttl time.Duration) error
	insertBatch(tc client.Trace, keys [][]byte) error
	deleteBatch(tc client.Trace, keys [][]byte) error
	containsBatch(tc client.Trace, keys [][]byte) error
}

// handle is the part of a data handle loadgen drives, shared by
// client.Handle (one daemon) and cluster.Handle (a routed cluster).
type handle[H any] interface {
	Namespace(name string) H
	Traced(tc client.Trace) H
	Insert(key []byte) error
	InsertTTL(key []byte, ttl time.Duration) error
	Contains(key []byte) (bool, error)
	InsertBatch(keys [][]byte) error
	DeleteBatch(keys [][]byte) ([]bool, error)
	ContainsBatch(keys [][]byte) ([]bool, error)
}

// handleTarget drives one filter — the default filter or a namespace —
// of a single daemon or of a cluster, holding its handle by value.
type handleTarget[H handle[H]] struct{ h H }

// targets returns a target per namespace in names on h, or h's own
// filter's when names is empty.
func targets[H handle[H]](h H, names []string) []target {
	if len(names) == 0 {
		return []target{handleTarget[H]{h}}
	}
	out := make([]target, len(names))
	for i, name := range names {
		out[i] = handleTarget[H]{h.Namespace(name)}
	}
	return out
}

func (t handleTarget[H]) insert(tc client.Trace, k []byte) error { return t.h.Traced(tc).Insert(k) }
func (t handleTarget[H]) contains(tc client.Trace, k []byte) error {
	_, err := t.h.Traced(tc).Contains(k)
	return err
}
func (t handleTarget[H]) insertTTL(tc client.Trace, k []byte, ttl time.Duration) error {
	return t.h.Traced(tc).InsertTTL(k, ttl)
}
func (t handleTarget[H]) insertBatch(tc client.Trace, ks [][]byte) error {
	return t.h.Traced(tc).InsertBatch(ks)
}
func (t handleTarget[H]) deleteBatch(tc client.Trace, ks [][]byte) error {
	_, err := t.h.Traced(tc).DeleteBatch(ks)
	return err
}
func (t handleTarget[H]) containsBatch(tc client.Trace, ks [][]byte) error {
	_, err := t.h.Traced(tc).ContainsBatch(ks)
	return err
}

// worker owns one connection (or one cluster client), one RNG stream,
// and its slice of the op schedule.
type worker struct {
	id      int
	cfg     *Config
	ks      *dataset.Keyspace
	cum     [numOps]float64
	start   time.Time // run start, anchors the grow-mode phase clock
	targets []target  // default ns at [0]; one per namespace otherwise
	closeFn func()
	pipe    *client.Pipeline

	hist     [numOps]*server.Histogram // shared, owned by Runner
	errs     [numOps]*counter
	maybe    [numOps]*counter
	keyBuf   []byte
	batchBuf [][]byte

	opSeq uint64      // ops issued, for 1-in-TraceSample selection
	slow  []SlowTrace // worker-local slowest traced ops, merged by Run
}

// maxSlowTraces bounds how many slow traced ops a Result reports.
const maxSlowTraces = 8

// sampleTrace returns a fresh trace context for 1 in every TraceSample
// ops issued by this worker, the zero (untraced) context otherwise.
func (w *worker) sampleTrace() client.Trace {
	if w.cfg.TraceSample <= 0 {
		return client.Trace{}
	}
	w.opSeq++
	if w.opSeq%uint64(w.cfg.TraceSample) != 0 {
		return client.Trace{}
	}
	return client.NewTrace()
}

// noteSlow keeps the worker's slowest traced ops, trimming lazily so the
// hot path stays an append.
func (w *worker) noteSlow(op Op, tc client.Trace, lat time.Duration) {
	if !tc.Active() {
		return
	}
	w.slow = append(w.slow, SlowTrace{Op: op.String(), LatencyUs: round2(float64(lat) / 1e3), TraceID: tc.String()})
	if len(w.slow) > 4*maxSlowTraces {
		sortSlowTraces(w.slow)
		w.slow = w.slow[:maxSlowTraces]
	}
}

// sortSlowTraces orders slowest-first (ties by id for determinism).
func sortSlowTraces(s []SlowTrace) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].LatencyUs != s[j].LatencyUs {
			return s[i].LatencyUs > s[j].LatencyUs
		}
		return s[i].TraceID < s[j].TraceID
	})
}

type counter struct {
	mu sync.Mutex
	n  uint64
}

func (c *counter) add(n uint64) {
	c.mu.Lock()
	c.n += n
	c.mu.Unlock()
}

func (c *counter) load() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// dial builds the worker's target(s). Each worker gets its own
// connections so the load scales with Concurrency instead of
// serializing on one socket.
func (w *worker) dial() error {
	cfg := w.cfg
	var opts []client.Option
	if cfg.Reconnect {
		// Generous retry budget: the fault schedule kills daemons for
		// hundreds of milliseconds; workers must ride it out.
		opts = append(opts, client.WithReconnect(8, 25*time.Millisecond, time.Second))
	}
	// Any replica listing ("primary/replica") routes through the cluster
	// client so reads actually fan out across the node's read set.
	if len(cfg.Addrs) > 1 || strings.Contains(cfg.Addrs[0], "/") {
		nodes := make([]cluster.Node, len(cfg.Addrs))
		for i, a := range cfg.Addrs {
			parts := strings.Split(a, "/")
			nodes[i] = cluster.Node{Primary: parts[0], Replicas: parts[1:]}
		}
		cc := cluster.ClientConfig{Nodes: nodes, Timeout: 10 * time.Second}
		if cfg.Reconnect {
			cc.ReconnectAttempts = 8
			cc.BackoffBase = 25 * time.Millisecond
			cc.BackoffMax = time.Second
		}
		c, err := cluster.NewClient(cc)
		if err != nil {
			return err
		}
		w.targets = targets(c.Handle, cfg.Namespaces)
		w.closeFn = func() { c.Close() }
		return nil
	}
	addr := strings.Split(cfg.Addrs[0], "/")[0]
	c, err := client.Dial(addr, append(opts, client.WithTimeout(10*time.Second))...)
	if err != nil {
		return err
	}
	w.targets = targets(c.Handle, cfg.Namespaces)
	w.closeFn = func() { c.Close() }
	if cfg.PipelineDepth > 0 {
		w.pipe = c.Pipeline()
	}
	return nil
}

// growLimit returns the keyspace prefix size for the run phase at now:
// N>>GrowSteps during the first phase, doubling at each boundary, the
// whole keyspace in the last.
func (w *worker) growLimit(now time.Time) int {
	cfg := w.cfg
	phases := cfg.GrowSteps + 1
	phase := int(float64(now.Sub(w.start)) / float64(cfg.Duration) * float64(phases))
	if phase < 0 {
		phase = 0
	}
	if phase > cfg.GrowSteps {
		phase = cfg.GrowSteps
	}
	return w.ks.N() >> (cfg.GrowSteps - phase)
}

// rank samples a key rank, folded into the current grow prefix when
// the ramp is active.
func (w *worker) rank(rng *hashing.RNG) int {
	r := w.ks.Rank(rng)
	if !w.cfg.Grow {
		return r
	}
	return r % w.growLimit(time.Now())
}

// drawKey appends one sampled key to dst, honoring the grow ramp.
func (w *worker) drawKey(dst []byte, rng *hashing.RNG) []byte {
	return w.ks.AppendKey(dst, w.rank(rng))
}

// drawOp maps one uniform draw to an op via the cumulative mix.
func (w *worker) drawOp(u float64) Op {
	for op := Op(0); op < numOps-1; op++ {
		if u < w.cum[op] {
			return op
		}
	}
	return numOps - 1
}

// observe records one completed op.
func (w *worker) observe(op Op, lat time.Duration, keys int, err error) {
	w.hist[op].ObserveDuration(lat)
	if err != nil {
		if errors.Is(err, client.ErrMaybeApplied) {
			w.maybe[op].add(uint64(keys))
		} else {
			w.errs[op].add(uint64(keys))
		}
	}
}

// issue runs one op (single-key or batch) against t and reports its
// latency and error.
func (w *worker) issue(rng *hashing.RNG, op Op, t target) {
	cfg := w.cfg
	tc := w.sampleTrace()
	if cfg.Batch > 1 {
		w.batchBuf = w.batchBuf[:0]
		for i := 0; i < cfg.Batch; i++ {
			w.batchBuf = append(w.batchBuf, w.ks.Key(w.rank(rng)))
		}
		start := time.Now()
		var err error
		switch op {
		case OpInsert:
			err = t.insertBatch(tc, w.batchBuf)
		case OpDelete:
			err = t.deleteBatch(tc, w.batchBuf)
		case OpContains:
			err = t.containsBatch(tc, w.batchBuf)
		case OpInsertTTL:
			// InsertTTLBatch exists only on the direct client; fold TTL
			// batches into plain insert batches for simplicity.
			err = t.insertBatch(tc, w.batchBuf)
		}
		lat := time.Since(start)
		w.observe(op, lat, cfg.Batch, err)
		w.noteSlow(op, tc, lat)
		if cfg.OnMutation != nil && op.IsMutation() {
			for _, k := range w.batchBuf {
				cfg.OnMutation(op, k, err)
			}
		}
		return
	}
	w.keyBuf = w.drawKey(w.keyBuf[:0], rng)
	start := time.Now()
	err := w.single(op, t, tc)
	lat := time.Since(start)
	w.observe(op, lat, 1, err)
	w.noteSlow(op, tc, lat)
	if cfg.OnMutation != nil && op.IsMutation() {
		cfg.OnMutation(op, w.keyBuf, err)
	}
}

// single runs op on t for the worker's current key. A delete goes
// through the flag-returning batch op: deleting a key that is not (or
// no longer) present is a legitimate workload outcome, not an error —
// the single-key DELETE wire op rejects it.
func (w *worker) single(op Op, t target, tc client.Trace) error {
	switch op {
	case OpInsert:
		return t.insert(tc, w.keyBuf)
	case OpDelete:
		w.batchBuf = append(w.batchBuf[:0], w.keyBuf)
		return t.deleteBatch(tc, w.batchBuf)
	case OpContains:
		return t.contains(tc, w.keyBuf)
	}
	return t.insertTTL(tc, w.keyBuf, w.cfg.TTL)
}

// runClosed is the closed loop: issue, wait, repeat until the deadline.
func (w *worker) runClosed(ctx context.Context, deadline time.Time) {
	rng := w.ks.WorkerRNG(w.id)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		op := w.drawOp(rng.Float64())
		t := w.targets[0]
		if len(w.targets) > 1 {
			t = w.targets[rng.Intn(len(w.targets))]
		}
		w.issue(rng, op, t)
	}
}

// runOpen is the open loop: worker w sends ops number w, w+C, w+2C, ...
// of the global schedule at their fixed times; latency is measured from
// the scheduled send, so server stalls surface as queueing delay.
func (w *worker) runOpen(ctx context.Context, start time.Time, deadline time.Time) {
	rng := w.ks.WorkerRNG(w.id)
	interval := time.Duration(float64(w.cfg.Concurrency) / w.cfg.Rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	next := start.Add(time.Duration(w.id) * interval / time.Duration(w.cfg.Concurrency))
	for next.Before(deadline) && ctx.Err() == nil {
		if wait := time.Until(next); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		op := w.drawOp(rng.Float64())
		t := w.targets[0]
		if len(w.targets) > 1 {
			t = w.targets[rng.Intn(len(w.targets))]
		}
		sched := next
		w.issueTimed(rng, op, t, sched)
		next = next.Add(interval)
	}
}

// issueTimed is issue with latency measured from sched instead of the
// actual call start.
func (w *worker) issueTimed(rng *hashing.RNG, op Op, t target, sched time.Time) {
	cfg := w.cfg
	tc := w.sampleTrace()
	w.keyBuf = w.drawKey(w.keyBuf[:0], rng)
	err := w.single(op, t, tc)
	lat := time.Since(sched)
	w.observe(op, lat, 1, err)
	w.noteSlow(op, tc, lat)
	if cfg.OnMutation != nil && op.IsMutation() {
		cfg.OnMutation(op, w.keyBuf, err)
	}
}

// runPipelined drives the pipelined connection: enqueue PipelineDepth
// ops, flush, attribute the flush round trip to every op in it.
func (w *worker) runPipelined(ctx context.Context, deadline time.Time) {
	rng := w.ks.WorkerRNG(w.id)
	cfg := w.cfg
	ops := make([]Op, 0, cfg.PipelineDepth)
	keys := make([][]byte, 0, cfg.PipelineDepth)
	tcs := make([]client.Trace, 0, cfg.PipelineDepth)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		ops = ops[:0]
		keys = keys[:0]
		tcs = tcs[:0]
		for i := 0; i < cfg.PipelineDepth; i++ {
			op := w.drawOp(rng.Float64())
			key := w.ks.Key(w.rank(rng))
			tc := w.sampleTrace()
			ops = append(ops, op)
			keys = append(keys, key)
			tcs = append(tcs, tc)
			// Sampled ops in the pipeline get their own envelope; the
			// context resets right after so neighbors stay untraced.
			w.pipe.SetTrace(tc)
			switch op {
			case OpInsert:
				w.pipe.Insert(key)
			case OpDelete:
				// Flag-returning batch form: absent keys are a workload
				// outcome, not an error (see worker.single).
				w.pipe.DeleteBatch([][]byte{key})
			case OpContains:
				w.pipe.Contains(key)
			case OpInsertTTL:
				w.pipe.InsertTTL(key, cfg.TTL)
			}
			w.pipe.SetTrace(client.Trace{})
		}
		start := time.Now()
		res, _ := w.pipe.Flush()
		lat := time.Since(start)
		for i, op := range ops {
			var err error
			if i < len(res) {
				err = res[i].Err
			} else {
				err = client.ErrMaybeApplied // flush died before this op's reply
			}
			w.observe(op, lat, 1, err)
			w.noteSlow(op, tcs[i], lat)
			if cfg.OnMutation != nil && op.IsMutation() {
				cfg.OnMutation(op, keys[i], err)
			}
		}
	}
}

// Run executes the configured workload and returns its Result. Worker
// op streams are deterministic functions of (Seed, worker id); the
// interleaving on the wire is not, which is why acked-loss accounting
// goes through OnMutation rather than replaying the schedule.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	cum, err := cfg.Mix.cumulative()
	if err != nil {
		return nil, err
	}
	ks, err := dataset.NewKeyspace(cfg.Keyspace)
	if err != nil {
		return nil, err
	}

	var hist [numOps]*server.Histogram
	var errsC, maybeC [numOps]*counter
	for i := range hist {
		hist[i] = &server.Histogram{}
		errsC[i] = &counter{}
		maybeC[i] = &counter{}
	}

	workers := make([]*worker, cfg.Concurrency)
	for i := range workers {
		w := &worker{id: i, cfg: &cfg, ks: ks, cum: cum, hist: hist, errs: errsC, maybe: maybeC}
		if err := w.dial(); err != nil {
			for _, prev := range workers[:i] {
				prev.closeFn()
			}
			return nil, fmt.Errorf("loadgen: worker %d dial: %w", i, err)
		}
		workers[i] = w
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for _, w := range workers {
		w.start = start
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer w.closeFn()
			switch {
			case cfg.PipelineDepth > 0:
				w.runPipelined(ctx, deadline)
			case cfg.OpenLoop:
				w.runOpen(ctx, start, deadline)
			default:
				w.runClosed(ctx, deadline)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{
		Manifest: cfg.manifest(),
		Elapsed:  elapsed.Seconds(),
		Ops:      map[string]OpStats{},
	}
	for op := Op(0); op < numOps; op++ {
		sum := hist[op].Summary()
		if sum.Count == 0 {
			continue
		}
		res.TotalOps += sum.Count
		st := OpStats{
			Count:        sum.Count,
			Errors:       errsC[op].load(),
			MaybeApplied: maybeC[op].load(),
			MeanUs:       round2(sum.Mean / 1e3),
			P50Us:        round2(sum.P50 / 1e3),
			P90Us:        round2(sum.P90 / 1e3),
			P99Us:        round2(sum.P99 / 1e3),
		}
		res.Errors += st.Errors
		res.MaybeApplied += st.MaybeApplied
		res.Ops[op.String()] = st
	}
	if elapsed > 0 {
		res.Throughput = round2(float64(res.TotalOps) / elapsed.Seconds())
	}
	var slow []SlowTrace
	for _, w := range workers {
		slow = append(slow, w.slow...)
	}
	if len(slow) > 0 {
		sortSlowTraces(slow)
		if len(slow) > maxSlowTraces {
			slow = slow[:maxSlowTraces]
		}
		res.SlowTraces = slow
	}
	return res, nil
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// sortedOps returns the op names present in the result, stable for
// human-readable rendering.
func (r *Result) sortedOps() []string {
	names := make([]string, 0, len(r.Ops))
	for name := range r.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
