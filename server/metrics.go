package server

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/prom"
	"repro/server/wire"
)

// HistBuckets is the bucket count of Histogram: power-of-two buckets
// covering 1..2^(HistBuckets-1) (~8.6s when the unit is nanoseconds);
// larger observations land in the last bucket.
const HistBuckets = 34

// Histogram is a lock-free power-of-two histogram: bucket i counts
// observations in [2^(i-1), 2^i). It is the one histogram shape used
// across the serving stack (request latency, WAL fsync latency, batch
// sizes, replica apply latency) so every exposition renders the same
// way. The zero value is ready to use.
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value (a duration in nanoseconds, a batch size —
// any non-negative magnitude).
func (h *Histogram) Observe(v uint64) {
	idx := bits.Len64(v) // v in [2^(idx-1), 2^idx)
	if idx >= HistBuckets {
		idx = HistBuckets - 1
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records d's nanosecond count.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(uint64(d.Nanoseconds()))
}

// HistSnapshot is a plain-value view of a Histogram, embeddable in the
// unified observability snapshot (and therefore in expvar JSON).
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []uint64 `json:"buckets"` // bucket i counts values in [2^(i-1), 2^i)
}

// Snapshot returns a consistent-enough plain view (each field is read
// atomically; the set is not a single atomic cut, which is fine for
// monitoring).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]uint64, HistBuckets),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// values by linear interpolation inside the power-of-two bucket the
// target count falls in: bucket i spans [2^(i-1), 2^i) (bucket 0 is
// [0, 1)), so the estimate is exact at bucket boundaries and off by at
// most a factor of two inside a bucket — plenty for p50/p99 latency
// reporting without a full sample recording. Returns 0 on an empty
// histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := histBucketBounds(i)
			frac := (target - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += float64(c)
	}
	_, hi := histBucketBounds(len(s.Buckets) - 1)
	return hi
}

// histBucketBounds returns bucket i's value range [lo, hi).
func histBucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}

// HistSummary is the compact roll-up the load generator and the
// saturation bench report per operation: counts plus interpolated
// latency quantiles. Values carry whatever unit was observed
// (nanoseconds for the latency histograms).
type HistSummary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary rolls the snapshot up into count/mean/p50/p90/p99.
func (s HistSnapshot) Summary() HistSummary {
	sum := HistSummary{
		Count: s.Count,
		Sum:   s.Sum,
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
	}
	if s.Count > 0 {
		sum.Mean = float64(s.Sum) / float64(s.Count)
	}
	return sum
}

// Quantile estimates the q-quantile of the live histogram; see
// HistSnapshot.Quantile for the interpolation contract.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// Summary rolls the live histogram up into count/mean/p50/p90/p99.
func (h *Histogram) Summary() HistSummary { return h.Snapshot().Summary() }

// WritePromSeconds renders a nanosecond-valued HistSnapshot as a
// Prometheus histogram in seconds.
func (s HistSnapshot) WritePromSeconds(w io.Writer, name, help string) {
	prom.Header(w, name, "histogram", help)
	cum := uint64(0)
	for i := 0; i < len(s.Buckets)-1; i++ {
		cum += s.Buckets[i]
		le := float64(uint64(1)<<i) / 1e9
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", le), cum)
	}
	cum += s.Buckets[len(s.Buckets)-1]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(s.Sum)/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}

// WritePromCounts renders a count-valued HistSnapshot (e.g. batch sizes)
// as a Prometheus histogram with unit-less bounds.
func (s HistSnapshot) WritePromCounts(w io.Writer, name, help string) {
	prom.Header(w, name, "histogram", help)
	cum := uint64(0)
	for i := 0; i < len(s.Buckets)-1; i++ {
		cum += s.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, uint64(1)<<i, cum)
	}
	cum += s.Buckets[len(s.Buckets)-1]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %d\n", name, s.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}

// Metrics aggregates serving-side counters: per-op request counts, error
// count, connection accounting, byte volume, and a request latency
// histogram. All fields are atomics — safe for concurrent handlers and
// lock-free on the hot path.
type Metrics struct {
	ops      [256]atomic.Uint64 // indexed by opcode
	errors   atomic.Uint64
	rejected atomic.Uint64 // connections refused by the limit
	open     atomic.Int64
	accepted atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
	lat      Histogram
}

// ObserveRequest records one completed request.
func (m *Metrics) ObserveRequest(op byte, d time.Duration, failed bool) {
	m.ops[op].Add(1)
	if failed {
		m.errors.Add(1)
	}
	m.lat.ObserveDuration(d)
}

// ConnOpened / ConnClosed / ConnRejected track connection lifecycle.
func (m *Metrics) ConnOpened()   { m.open.Add(1); m.accepted.Add(1) }
func (m *Metrics) ConnClosed()   { m.open.Add(-1) }
func (m *Metrics) ConnRejected() { m.rejected.Add(1) }

// AddBytes accounts frame traffic.
func (m *Metrics) AddBytes(in, out int) {
	if in > 0 {
		m.bytesIn.Add(uint64(in))
	}
	if out > 0 {
		m.bytesOut.Add(uint64(out))
	}
}

// Ops returns the request count for one opcode.
func (m *Metrics) Ops(op byte) uint64 { return m.ops[op].Load() }

// TotalOps returns the request count across all opcodes.
func (m *Metrics) TotalOps() uint64 {
	var t uint64
	for op := byte(1); op <= wire.MaxOp; op++ {
		t += m.ops[op].Load()
	}
	return t
}
