package client

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// retained, so steady-state reuse does not allocate beyond response
// decoding).
//
// Error semantics mirror the synchronous client but are attributed
// per-request by frame offset. Operation-level failures (*ServerError,
// *ReadOnlyError) land in that request's PipeResult.Err and do not
// disturb later responses — the stream stays in sync. A transport
// failure breaks the connection; requests already answered keep their
// definitive results, unanswered requests whose bytes may have reached
// the daemon get ErrMaybeApplied if they are mutations, and requests
// provably never sent get a plain transport error. Flush never retries:
// replaying a maybe-applied mutation on a counting filter would
// double-count.
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

type pipeReq struct {
	op    byte
	start int // offset of this request's frame header in buf
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
	start := len(p.buf)
	p.buf = append(p.buf, 0, 0, 0, 0)
	p.buf = wire.AppendRequest(p.buf, &req)
	binary.LittleEndian.PutUint32(p.buf[start:], uint32(len(p.buf)-start-4))
	// The recorded op is the INNER op even under a namespace envelope:
	// Flush decodes responses and attributes transport failures by what
	// the operation does (Contains vs Insert), not how it was framed.
	p.reqs = append(p.reqs, pipeReq{op: req.Op, start: start})
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
// The send runs in a goroutine concurrent with response reads: the
// daemon's per-connection response queue is bounded, so a large
// single-threaded burst would otherwise deadlock with both sides
// blocked on full buffers.
func (p *Pipeline) Flush() ([]PipeResult, error) {
	n := len(p.reqs)
	if n == 0 {
		return nil, nil
	}
	c := p.c
	c.stRequests.Add(uint64(n))
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() {
		p.buf = p.buf[:0]
		p.reqs = p.reqs[:0]
	}()
	results := p.results[:0]
	if c.err != nil {
		redialErr := error(nil)
		switch {
		case c.closed:
			redialErr = errors.New("mpcbfd: client closed")
		case !c.reconnect:
			redialErr = fmt.Errorf("mpcbfd: client broken by earlier error: %w", c.err)
		default:
			redialErr = c.redial()
		}
		if redialErr != nil {
			// Nothing was sent: every queued request fails definitively.
			for _, rq := range p.reqs {
				results = append(results, PipeResult{Op: rq.op, Err: redialErr})
			}
			p.results = results
			return results, redialErr
		}
	}
	// The deadline is per unit of progress, not per burst: a pipeline of
	// many durable mutations legitimately takes longer than one
	// round-trip, so the initial window is refreshed after every decoded
	// response (below). SetDeadline covers the concurrent Write too —
	// response progress implies the daemon is consuming our bytes.
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}

	// Send in the background while this goroutine reads responses.
	// Writing straight to the conn (not c.w) keeps the kernel-accepted
	// byte count observable: bytes beyond wr.n provably never left.
	type writeOutcome struct {
		n   int
		err error
	}
	written := make(chan writeOutcome, 1)
	go func() {
		nw, err := c.conn.Write(p.buf)
		written <- writeOutcome{nw, err}
	}()

	var terr error
	rbuf := c.buf
	for i := 0; i < n && terr == nil; i++ {
		payload, err := wire.ReadFrame(c.r, rbuf[:0], c.maxFrame)
		if err != nil {
			terr = err
			break
		}
		if c.timeout > 0 {
			// Each response buys the burst another timeout window; only a
			// stall with zero progress for c.timeout fails the transport.
			c.conn.SetDeadline(time.Now().Add(c.timeout))
		}
		rbuf = payload
		status, body, err := wire.DecodeStatus(payload)
		if err != nil {
			terr = err
			break
		}
		res := PipeResult{Op: p.reqs[i].op}
		switch status {
		case wire.StatusOK:
			switch p.reqs[i].op {
			case wire.OpContains:
				res.Bool, res.Err = wire.DecodeBool(body)
			case wire.OpEstimate, wire.OpLen:
				res.U64, res.Err = wire.DecodeU64(body)
			case wire.OpContainsBatch, wire.OpDeleteBatch:
				var dst []bool
				if i < len(p.results) {
					dst = p.results[i].Bools[:0]
				}
				res.Bools, res.Err = wire.DecodeBoolsInto(body, dst)
			}
			if res.Err != nil {
				// A malformed OK body means the stream framing can no
				// longer be trusted.
				terr = res.Err
			}
		case wire.StatusErr:
			res.Err = &ServerError{Msg: string(body)}
		case wire.StatusReadOnly:
			res.Err = &ReadOnlyError{Primary: string(body)}
		default:
			terr = fmt.Errorf("mpcbfd: unknown status 0x%02x", status)
		}
		if terr != nil {
			break
		}
		results = append(results, res)
	}
	c.buf = rbuf[:0]

	if terr != nil {
		// Break the connection before waiting on the writer: closing the
		// conn unblocks a Write stalled on a dead peer's full buffers.
		c.fail(terr)
	}
	wr := <-written
	if terr == nil {
		if wr.err != nil {
			// All responses arrived, so every result is definitive, but
			// the connection can't be trusted for the next call.
			c.fail(wr.err)
		}
		p.results = results
		return results, nil
	}

	// Transport failure: attribute the unanswered tail. Bytes at offsets
	// below the kernel-accepted watermark may have reached the daemon —
	// unanswered mutations there are in flight and get ErrMaybeApplied.
	// Frames starting at or past the watermark were never sent.
	watermark := wr.n
	if wr.err == nil {
		watermark = len(p.buf)
	}
	for i := len(results); i < n; i++ {
		res := PipeResult{Op: p.reqs[i].op}
		if p.reqs[i].start < watermark && wire.IsMutation(p.reqs[i].op) {
			c.stMaybeApplied.Add(1)
			res.Err = fmt.Errorf("%w (%v)", ErrMaybeApplied, terr)
		} else {
			res.Err = fmt.Errorf("mpcbfd: pipelined request not completed: %w", terr)
		}
		results = append(results, res)
	}
	p.results = results
	return results, terr
}
