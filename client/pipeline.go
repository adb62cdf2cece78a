package client

import (
	"fmt"
	"slices"
	"time"

	"repro/server/wire"
)

// Pipeline queues requests client-side and ships them in one burst,
// reading responses concurrently with the send. The daemon decodes and
// applies request N+1 while request N's WAL commit is in flight, so a
// pipelined mutation stream pays one group fsync per commit round
// instead of one per request — this is the client half of the server's
// group-commit path, and the way a single connection saturates it.
//
// A Pipeline is not safe for concurrent use. Queue any mix of
// operations, then call Flush: responses come back in request order, as
// PipeResult values aligned index-for-index with the queued requests.
// Between Flush calls the Pipeline is empty and reusable (buffers are
// retained, so in steady state a Flush allocates only the writer
// goroutine that sends a run of more than one request).
//
// Error semantics are the synchronous client's, applied per request.
// Operation-level failures (*ServerError, *ReadOnlyError) land in that
// request's PipeResult.Err and do not disturb later responses — the
// stream stays in sync. A transport failure breaks the connection;
// requests already answered keep their definitive results, unanswered
// mutations whose bytes may have reached the daemon get ErrMaybeApplied,
// and every other unanswered request gets a plain transport error.
// Flush never retries: replaying a maybe-applied mutation on a counting
// filter would double-count.
type Pipeline struct {
	// PipeHandle is the pipeline's view of the default filter: its
	// queueing methods are the Pipeline's own.
	PipeHandle

	c       *Client
	buf     []byte // queued frames: [u32 len][payload]...
	reqs    []pipeReq
	results []PipeResult
	tc      Trace // applied to every subsequently queued request
}

// PipeResult is the outcome of one pipelined request. Op echoes the
// request opcode; exactly one of Bool, U64, Bools is populated on
// success, matching what the synchronous method for that opcode
// returns. Bools aliases a buffer reused by the next Flush.
type PipeResult struct {
	Op    byte
	Err   error
	Bool  bool   // Contains
	U64   uint64 // EstimateCount, Len
	Bools []bool // ContainsBatch, DeleteBatch
}

// decode fills r from an OK response body in the shape r.Op answers
// with; the synchronous Handle reads decode through it too. An error
// means a malformed body.
func (r *PipeResult) decode(body []byte) (err error) {
	switch r.Op {
	case wire.OpContains:
		r.Bool, err = wire.DecodeBool(body)
	case wire.OpEstimate, wire.OpLen:
		r.U64, err = wire.DecodeU64(body)
	case wire.OpContainsBatch, wire.OpDeleteBatch:
		r.Bools, err = wire.DecodeBoolsInto(body, r.Bools[:0])
	}
	return err
}

// Pipeline returns a new, empty request pipeline on this connection.
func (c *Client) Pipeline() *Pipeline {
	p := &Pipeline{c: c}
	p.PipeHandle = PipeHandle{p: p}
	return p
}

// Pending returns the number of queued, unflushed requests.
func (p *Pipeline) Pending() int { return len(p.reqs) }

// SetTrace sets the trace context wrapped around every subsequently
// queued request (the TRACE envelope, outermost). The zero Trace turns
// tracing back off. Requests already queued are unaffected.
func (p *Pipeline) SetTrace(tc Trace) { p.tc = tc }

func (p *Pipeline) queue(req wire.Request) {
	if len(req.NS) > wire.MaxNamespaceLen {
		// A queue method cannot return an error without breaking every
		// call site; an over-long name is a programmer error, caught here
		// rather than desyncing the stream server-side.
		panic(fmt.Sprintf("mpcbfd: namespace name %d bytes long (max %d)", len(req.NS), wire.MaxNamespaceLen))
	}
	p.tc.stamp(&req)
	p.reqs = append(p.reqs, pipeReq{op: req.Op, start: len(p.buf)})
	p.buf = appendFrame(p.buf, &req)
}

// CreateNamespace queues a CREATE_NS of name with cfg (zero-valued cfg
// fields take the daemon's defaults). A name longer than
// wire.MaxNamespaceLen panics — a programmer error, as in Namespace.
func (p *Pipeline) CreateNamespace(name string, cfg wire.NsConfig) {
	p.queue(wire.Request{Op: wire.OpNsCreate, NS: []byte(name), NsCfg: cfg})
}

// DropNamespace queues a DROP_NS of name.
func (p *Pipeline) DropNamespace(name string) {
	p.queue(wire.Request{Op: wire.OpNsDrop, NS: []byte(name)})
}

// Namespace returns a view of this pipeline that queues every data
// operation against the named namespace (wrapped in the NAMESPACED
// envelope). The view shares the pipeline's queue and Flush; results
// come back in overall queue order regardless of which view queued
// them. A name longer than wire.MaxNamespaceLen panics at queue time.
func (p *Pipeline) Namespace(name string) PipeHandle {
	return PipeHandle{p: p, ns: []byte(name)}
}

// PipeHandle queues data operations against one filter on a Pipeline: a
// namespace, or the default filter for the empty name. It is a
// value-type view: copying it is cheap and all copies share the same
// queue.
type PipeHandle struct {
	p  *Pipeline
	ns []byte
}

func (v PipeHandle) add(req wire.Request) {
	req.NS = v.ns
	v.p.queue(req)
}

// Insert queues an insert of key.
func (v PipeHandle) Insert(key []byte) { v.add(wire.Request{Op: wire.OpInsert, Key: key}) }

// Delete queues a delete of key.
func (v PipeHandle) Delete(key []byte) { v.add(wire.Request{Op: wire.OpDelete, Key: key}) }

// Contains queues a membership probe; the answer lands in Bool.
func (v PipeHandle) Contains(key []byte) { v.add(wire.Request{Op: wire.OpContains, Key: key}) }

// EstimateCount queues a multiplicity estimate; the answer lands in U64.
func (v PipeHandle) EstimateCount(key []byte) { v.add(wire.Request{Op: wire.OpEstimate, Key: key}) }

// Len queues an element-count read; the answer lands in U64.
func (v PipeHandle) Len() { v.add(wire.Request{Op: wire.OpLen}) }

// InsertBatch queues a batch insert.
func (v PipeHandle) InsertBatch(keys [][]byte) {
	v.add(wire.Request{Op: wire.OpInsertBatch, Keys: keys})
}

// DeleteBatch queues a batch delete; per-key flags land in Bools.
func (v PipeHandle) DeleteBatch(keys [][]byte) {
	v.add(wire.Request{Op: wire.OpDeleteBatch, Keys: keys})
}

// ContainsBatch queues a batch probe; per-key answers land in Bools.
func (v PipeHandle) ContainsBatch(keys [][]byte) {
	v.add(wire.Request{Op: wire.OpContainsBatch, Keys: keys})
}

// InsertTTL queues a TTL insert (windowed filters only).
func (v PipeHandle) InsertTTL(key []byte, ttl time.Duration) {
	v.add(wire.Request{Op: wire.OpInsertTTL, Key: key, TTL: uint64(max(ttl, 0))})
}

// InsertTTLBatch queues a batch TTL insert (windowed filters only).
func (v PipeHandle) InsertTTLBatch(keys [][]byte, ttl time.Duration) {
	v.add(wire.Request{Op: wire.OpInsertTTLBatch, Keys: keys, TTL: uint64(max(ttl, 0))})
}

// Flush sends every queued request and reads every response, in order.
// It returns one PipeResult per queued request — always len == Pending()
// at the time of the call, even on failure — plus the first
// transport-level error, if any. The returned slice and any Bools inside
// it are overwritten by the next Flush on this Pipeline.
//
// A run of requests is written concurrently with the response reads:
// the daemon's per-connection response queue is bounded, so a large
// burst written before reading would deadlock with both sides blocked on
// full buffers.
func (p *Pipeline) Flush() ([]PipeResult, error) {
	n := len(p.reqs)
	if n == 0 {
		return nil, nil
	}
	c := p.c
	c.stRequests.Add(uint64(n))
	c.mu.Lock()
	defer c.mu.Unlock()
	// Reuse the previous results' Bools, so steady-state batch reads
	// decode without allocating.
	res := slices.Grow(p.results[:0], n)[:n]
	for i, rq := range p.reqs {
		res[i] = PipeResult{Op: rq.op, Bools: res[i].Bools[:0]}
	}
	p.results = res
	err := c.ready()
	if err == nil {
		err = c.exchange(p.buf, p.reqs, func(i int, body []byte, rerr error) error {
			if res[i].Err = rerr; rerr != nil {
				return nil
			}
			return res[i].decode(body)
		})
	} else {
		// Nothing was sent: every request fails definitively.
		for i := range res {
			res[i].Err = err
		}
	}
	p.buf, p.reqs = p.buf[:0], p.reqs[:0]
	return res, err
}
