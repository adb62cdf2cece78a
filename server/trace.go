package server

import (
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/server/wire"
)

// Request tracing: every request gets an ID from an atomic counter; a
// 1-in-N sample additionally collects per-stage timings
// (decode → filter op → WAL append → fsync → encode+write). Sampled
// entries land in a fixed ring of recent requests; requests slower than
// the configured threshold land in a second ring (with stage detail
// when they were sampled) and emit a slog warning. Both rings are
// served as JSON at /debug/requests.
//
// Distributed tracing rides the same machinery: a request that arrives
// inside a TRACE envelope is always upgraded to a full trace (force),
// its span lands in a third ring keyed by the propagated trace id, and
// replica-side WAL applies land in a fourth; both are served at
// /debug/traces for the mpcbf-trace stitcher.
//
// Hot-path cost when sampling and the slow threshold are both off: one
// atomic Add (the request ID) and two predictable branches — no clock
// reads beyond the one the latency histogram already takes, no locks,
// no allocation. The rings take a mutex, but only sampled or slow
// requests ever reach them.

// TraceEntry is one traced request as exposed at /debug/requests and
// /debug/traces. Stage fields are zero for slow-but-unsampled requests
// (only the total was measured). Requests that arrived inside a TRACE
// envelope carry the propagated trace id and parent span; the server's
// request ID doubles as this span's id. Mutations additionally record
// where they landed in the WAL (segment sequence plus byte offset) and
// which group-commit round made them durable, so a primary span can be
// joined to the replica-apply span covering the same offset range.
type TraceEntry struct {
	ID         uint64    `json:"id"`
	Op         string    `json:"op"`
	TraceID    string    `json:"trace_id,omitempty"`    // hex, propagated by the client
	ParentSpan uint64    `json:"parent_span,omitempty"` // client-side parent span id
	NS         string    `json:"ns,omitempty"`          // namespace for enveloped requests
	Start      time.Time `json:"start"`
	TotalNs    int64     `json:"total_ns"`
	DecodeNs   int64     `json:"decode_ns,omitempty"`
	FilterNs   int64     `json:"filter_ns,omitempty"`
	WALNs      int64     `json:"wal_ns,omitempty"`
	FsyncNs    int64     `json:"fsync_ns,omitempty"`
	EncodeNs   int64     `json:"encode_ns,omitempty"`
	RoundSeq   uint64    `json:"round_seq,omitempty"`  // group-commit round that covered this op
	RoundRecs  int       `json:"round_recs,omitempty"` // records committed in that round
	WALSeq     uint64    `json:"wal_seq,omitempty"`    // WAL segment the op appended to
	WALOff     uint64    `json:"wal_off,omitempty"`    // byte offset of the op's first record
	WALEnd     uint64    `json:"wal_end,omitempty"`    // replica apply: end of the applied range
	Keys       int       `json:"keys"`
	KeyBytes   int       `json:"key_bytes"`
	Failed     bool      `json:"failed,omitempty"`
	Sampled    bool      `json:"sampled"`
	Replica    bool      `json:"replica,omitempty"` // replica-side WAL apply span
}

// reqTrace accumulates stage timings for one sampled request. A nil
// *reqTrace is valid everywhere and records nothing, so the store and
// WAL plumbing never branch on "is tracing on" themselves.
type reqTrace struct {
	entry   TraceEntry
	traceID [wire.TraceIDLen]byte
	traced  bool
}

// now returns the stage clock, or the zero Time when tr is nil so the
// untraced path never reads the clock.
func (tr *reqTrace) now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

func (tr *reqTrace) addDecode(t0 time.Time) {
	if tr != nil {
		tr.entry.DecodeNs += time.Since(t0).Nanoseconds()
	}
}

func (tr *reqTrace) addFilter(t0 time.Time) {
	if tr != nil {
		tr.entry.FilterNs += time.Since(t0).Nanoseconds()
	}
}

func (tr *reqTrace) addWAL(t0 time.Time) {
	if tr != nil {
		tr.entry.WALNs += time.Since(t0).Nanoseconds()
	}
}

func (tr *reqTrace) addFsync(d time.Duration) {
	if tr != nil {
		tr.entry.FsyncNs += d.Nanoseconds()
	}
}

// setContext records the propagated trace id and parent span from a
// TRACE envelope. Hex formatting is deferred to finish so the hot path
// only copies bytes.
func (tr *reqTrace) setContext(id [wire.TraceIDLen]byte, parent uint64) {
	if tr != nil {
		tr.traceID = id
		tr.traced = true
		tr.entry.ParentSpan = parent
	}
}

// setNS records the namespace name for an enveloped request.
func (tr *reqTrace) setNS(name []byte) {
	if tr != nil && len(name) != 0 {
		tr.entry.NS = string(name)
	}
}

// setWALPos records where the op's first record landed in the WAL: the
// segment sequence and the byte offset the append started at. This is
// the join key to the replica-apply span covering the same range. An op
// that appends more than once (an elastic insert batch's runs) keeps
// its first position; segment sequences start at 1, so 0 is unset.
func (tr *reqTrace) setWALPos(seq uint64, off int64) {
	if tr != nil && tr.entry.WALSeq == 0 {
		tr.entry.WALSeq = seq
		tr.entry.WALOff = uint64(off)
	}
}

// setRound records the group-commit round that made the op durable and
// how many records shared that round.
func (tr *reqTrace) setRound(seq uint64, recs int) {
	if tr != nil && tr.entry.RoundSeq == 0 {
		tr.entry.RoundSeq = seq
		tr.entry.RoundRecs = recs
	}
}

// traceRing is a fixed-size ring of completed trace entries. Pushes are
// mutex-guarded; only sampled or slow requests push.
type traceRing struct {
	mu    sync.Mutex
	buf   []TraceEntry
	next  int
	total uint64
}

func (r *traceRing) push(e TraceEntry) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// entries returns the ring's contents, newest first.
func (r *traceRing) entries() []TraceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if r.total < uint64(n) {
		n = int(r.total)
	}
	out := make([]TraceEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[((r.next-1-i)%len(r.buf)+len(r.buf))%len(r.buf)])
	}
	return out
}

const traceRingSize = 128

// Tracer owns the request-ID counter, the sampling decision, and the
// recent/slow rings. Configure it through Config.TraceSample and
// Config.SlowOp.
type Tracer struct {
	sampleEvery uint64 // trace 1 in N requests; 0 = off
	slowNs      int64  // slow threshold; 0 = off
	log         *slog.Logger

	seq     atomic.Uint64
	recent  traceRing
	slow    traceRing
	traced  traceRing // requests that arrived with a client trace id
	applies traceRing // replica-side WAL apply spans
}

func newTracer(sampleEvery int, slow time.Duration, log *slog.Logger) *Tracer {
	t := &Tracer{
		slowNs: slow.Nanoseconds(),
		log:    log,
	}
	if sampleEvery > 0 {
		t.sampleEvery = uint64(sampleEvery)
	}
	t.recent.buf = make([]TraceEntry, traceRingSize)
	t.slow.buf = make([]TraceEntry, traceRingSize)
	t.traced.buf = make([]TraceEntry, traceRingSize)
	t.applies.buf = make([]TraceEntry, traceRingSize)
	return t
}

// beginFrame assigns a request frame its ID and decides whether it is
// traced. The returned trace is nil for a request neither sampled nor
// sent in a TRACE envelope carrying ids. Such an envelope (always the
// outermost op) records stage detail — the client asked for it —
// independent of the sampling rate, starting before the decode so its
// span times the decode too; Sampled stays false for it so the recent
// ring remains a faithful 1-in-N sample. The zero-length untraced
// envelope is handled like any other frame.
func (t *Tracer) beginFrame(payload []byte) (id uint64, tr *reqTrace) {
	id = t.seq.Add(1)
	sampled := t.sampleEvery != 0 && id%t.sampleEvery == 0
	if !sampled && !wire.CarriesTraceIDs(payload) {
		return id, nil
	}
	tr = &reqTrace{}
	tr.entry.ID = id
	tr.entry.Start = time.Now()
	tr.entry.Sampled = sampled
	return id, tr
}

// recordApply pushes one replica-side WAL apply span: the offset range
// [off, off+n) of segment seq was applied to the local filter in d.
// Joined to primary mutation spans by offset containment.
func (t *Tracer) recordApply(seq uint64, off int64, n int, recs int, d time.Duration) {
	t.applies.push(TraceEntry{
		ID:      t.seq.Add(1),
		Op:      "replica_apply",
		Start:   time.Now().Add(-d),
		TotalNs: d.Nanoseconds(),
		WALSeq:  seq,
		WALOff:  uint64(off),
		WALEnd:  uint64(off) + uint64(n),
		Keys:    recs,
		Replica: true,
	})
}

// finish completes one request: sampled entries go to the recent ring;
// entries over the slow threshold go to the slow ring and warn. No-op
// (two branches) for the common unsampled-and-fast case.
func (t *Tracer) finish(id uint64, tr *reqTrace, op byte, keys, keyBytes int, total time.Duration, failed bool) {
	slow := t.slowNs > 0 && total.Nanoseconds() >= t.slowNs
	if tr == nil && !slow {
		return
	}
	var e TraceEntry
	if tr != nil {
		e = tr.entry
		// Encode+write is whatever the measured stages don't account for.
		if rest := total.Nanoseconds() - e.DecodeNs - e.FilterNs - e.WALNs - e.FsyncNs; rest > 0 {
			e.EncodeNs = rest
		}
		if tr.traced {
			e.TraceID = hex.EncodeToString(tr.traceID[:])
		}
	} else {
		e.ID = id
		e.Start = time.Now().Add(-total)
	}
	e.Op = wire.OpName(op)
	e.TotalNs = total.Nanoseconds()
	e.Keys = keys
	e.KeyBytes = keyBytes
	e.Failed = failed
	if tr != nil && tr.traced {
		t.traced.push(e)
	}
	if tr != nil && e.Sampled {
		t.recent.push(e)
	}
	if slow {
		t.slow.push(e)
		t.log.Warn("slow request",
			"id", e.ID, "op", e.Op, "total", total,
			"decode_ns", e.DecodeNs, "filter_ns", e.FilterNs,
			"wal_ns", e.WALNs, "fsync_ns", e.FsyncNs, "encode_ns", e.EncodeNs,
			"keys", e.Keys, "key_bytes", e.KeyBytes, "failed", e.Failed)
	}
}

// TraceReport is the JSON document served at /debug/requests.
type TraceReport struct {
	Requests    uint64       `json:"requests"` // IDs assigned so far
	SampleEvery uint64       `json:"sample_every"`
	SlowOpNs    int64        `json:"slow_op_ns"`
	Sampled     uint64       `json:"sampled"`
	Slow        uint64       `json:"slow"`
	Recent      []TraceEntry `json:"recent"`
	SlowRecent  []TraceEntry `json:"slow_recent"`
}

// Report returns the current trace state, newest entries first.
func (t *Tracer) Report() TraceReport {
	rep := TraceReport{
		Requests:    t.seq.Load(),
		SampleEvery: t.sampleEvery,
		SlowOpNs:    t.slowNs,
		Recent:      t.recent.entries(),
		SlowRecent:  t.slow.entries(),
	}
	t.recent.mu.Lock()
	rep.Sampled = t.recent.total
	t.recent.mu.Unlock()
	t.slow.mu.Lock()
	rep.Slow = t.slow.total
	t.slow.mu.Unlock()
	return rep
}

func (t *Tracer) serveHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(t.Report())
}

// TracesReport is the JSON document served at /debug/traces: spans that
// belong to distributed traces. Spans holds requests that arrived with
// a client trace id; ReplicaApplies holds replica-side WAL apply spans
// (joined to primary spans by offset containment). Both follow the same
// fixed-ring discipline as /debug/requests.
type TracesReport struct {
	Requests       uint64       `json:"requests"` // IDs assigned so far
	Traced         uint64       `json:"traced"`   // spans pushed, ever
	Applies        uint64       `json:"applies"`  // apply spans pushed, ever
	Spans          []TraceEntry `json:"spans"`
	ReplicaApplies []TraceEntry `json:"replica_applies"`
}

// TracesReport returns the distributed-tracing rings, newest first.
func (t *Tracer) TracesReport() TracesReport {
	rep := TracesReport{
		Requests:       t.seq.Load(),
		Spans:          t.traced.entries(),
		ReplicaApplies: t.applies.entries(),
	}
	t.traced.mu.Lock()
	rep.Traced = t.traced.total
	t.traced.mu.Unlock()
	t.applies.mu.Lock()
	rep.Applies = t.applies.total
	t.applies.mu.Unlock()
	return rep
}

func (t *Tracer) serveTracesHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(t.TracesReport())
}
