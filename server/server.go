// Package server implements mpcbfd's serving layer: a TCP front end
// speaking the wire protocol of repro/server/wire, dispatching onto a
// durable Store (sharded MPCBF + write-ahead log + snapshots), plus an
// HTTP sidecar for health and metrics.
package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	mpcbf "repro"
	"repro/server/wire"
	"repro/window"
)

// StatsSource supplies extra observability state appended to both the
// Prometheus exposition and the expvar snapshot — the hook a replica
// process uses to publish its replication gauges without the server
// package importing the cluster package. Both views come from the same
// implementor, so they cannot drift apart.
type StatsSource interface {
	// WriteProm appends Prometheus text-format metrics.
	WriteProm(w io.Writer)
	// Vars returns the same state as a JSON-marshalable map.
	Vars() map[string]any
}

// Config tunes the TCP front end.
type Config struct {
	// Addr is the listen address (default ":7070").
	Addr string
	// MaxConns bounds simultaneous connections; excess accepts are closed
	// immediately (default 1024).
	MaxConns int
	// MaxFrameBytes bounds one request frame (default wire.DefaultMaxFrame).
	MaxFrameBytes int
	// IdleTimeout closes connections with no complete request for this
	// long (default 5m).
	IdleTimeout time.Duration
	// WriteTimeout bounds one response write (default 30s).
	WriteTimeout time.Duration
	// ReadOnly rejects mutations with a StatusReadOnly redirect carrying
	// PrimaryAddr. Set on replicas.
	ReadOnly bool
	// PrimaryAddr is the address advertised in read-only redirects.
	PrimaryAddr string
	// HeartbeatEvery is the replication heartbeat period while a
	// subscriber is caught up (default 1s).
	HeartbeatEvery time.Duration
	// Extra, when set, contributes additional metrics to both /metrics
	// and /debug/vars (e.g. a replica's replication gauges).
	Extra StatsSource
	// Ready, when set, gates /readyz: the endpoint reports 503 while
	// Ready returns false (a replica still bootstrapping its snapshot,
	// for example). Shutdown drain always reports not-ready regardless.
	Ready func() bool
	// TraceSample collects per-stage timings for 1 in TraceSample
	// requests into the /debug/requests ring (0 disables sampling).
	TraceSample int
	// SlowOp records any request slower than this in the slow ring at
	// /debug/requests and logs a warning (0 disables).
	SlowOp time.Duration
	// Chaos exposes the WAL failpoint control endpoint (/chaos) on the
	// HTTP sidecar — fault-schedule harness use only, never production.
	Chaos bool
	// Log receives structured operational messages (default
	// slog.Default()). The server logs with component=server attached.
	Log *slog.Logger
}

func (c *Config) setDefaults() {
	if c.Addr == "" {
		c.Addr = ":7070"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = wire.DefaultMaxFrame
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	c.Log = c.Log.With("component", "server")
}

// Server accepts wire-protocol connections and serves them from a Store.
type Server struct {
	cfg     Config
	store   *Store
	metrics *Metrics
	tracer  *Tracer

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// stop wakes replication streamers (blocked on WAL changes, not
	// reads) at shutdown; subs tracks them for the metrics gauges.
	stop chan struct{}
	subs sync.Map // *replSub -> struct{}

	// ring is the cluster partition map a reshard coordinator last pushed
	// (RING_SET). The server itself never routes by it — clients do — it
	// only stores and republishes it (RING_GET) so every client polling
	// any node converges on the newest epoch. Accepted on replicas too:
	// the ring is coordination metadata, not durable store state.
	ring atomic.Pointer[wire.Ring]
	// ringAdopted is when (unix nanos) the current ring epoch was
	// adopted, feeding the dual-write-window duration gauge.
	ringAdopted atomic.Int64
}

// New builds a server over store. metrics may be nil (a private instance
// is created).
func New(store *Store, cfg Config, metrics *Metrics) *Server {
	cfg.setDefaults()
	if metrics == nil {
		metrics = &Metrics{}
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		metrics: metrics,
		tracer:  newTracer(cfg.TraceSample, cfg.SlowOp, cfg.Log),
		conns:   make(map[net.Conn]struct{}),
		stop:    make(chan struct{}),
	}
	if store.opts.Replica {
		// Replica-apply spans join primary mutation spans by WAL offset
		// range; see /debug/traces.
		store.SetApplyObserver(s.tracer.recordApply)
	}
	return s
}

// Tracer returns the server's request tracer.
func (s *Server) Tracer() *Tracer { return s.tracer }

// Metrics returns the server's metrics aggregate.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Store returns the backing store.
func (s *Server) Store() *Store { return s.store }

// Addr returns the bound listen address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe binds cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil after a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			s.metrics.ConnRejected()
			conn.Close()
			continue
		}
		go func() {
			defer s.untrack(conn)
			s.handleConn(conn)
		}()
	}
}

// track registers a connection. The wg.Add happens under s.mu, before
// Shutdown (which also takes s.mu after setting closed) can observe the
// connection set — so Shutdown's wg.Wait can never see a zero counter
// while an accepted connection's handler is still starting.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	s.metrics.ConnOpened()
	return true
}

func (s *Server) untrack(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.metrics.ConnClosed()
	s.wg.Done()
}

// Shutdown stops accepting, wakes idle readers so in-flight requests
// drain, and waits for connections to finish. When ctx expires first the
// remaining connections are force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stop)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Interrupt reads: a connection blocked waiting for the next request
	// fails its read and exits; one mid-request finishes the request,
	// writes the response, then fails its next read.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Pipelined connections: each connection runs a reader (this goroutine:
// read → decode → apply+enqueue) and a writer goroutine (wait for the
// WAL commit → write the response in order). The reader starts on
// request N+1 while N's group commit is in flight, so a single
// connection issuing back-to-back mutations keeps the committer fed
// instead of stalling a round-trip per fsync. Responses flow through a
// bounded in-order queue — ordering is structural, not re-sorted — and
// the queue depth is the pipelining limit a client can extract.
const (
	// connPipeDepth bounds responses awaiting durability+write per
	// connection; the reader blocks (TCP backpressure) beyond it.
	connPipeDepth = 64
	// connRecycleCap bounds response buffers kept on the per-connection
	// free list: a DUMP response must not pin megabytes per connection.
	connRecycleCap = 64 << 10
)

// connItem is one response traveling from reader to writer.
type connItem struct {
	id       uint64
	op       byte
	ticket   uint64 // WAL commit ticket; 0 = nothing to wait for
	buf      []byte // encoded response (may be rewritten to ERR on commit failure)
	failed   bool
	observe  bool // protocol errors skip metrics/trace, as they always have
	start    time.Time
	tr       *reqTrace
	keys     int
	keyBytes int
}

// handleConn runs the request loop for one connection: read a frame,
// dispatch (apply + WAL enqueue), queue the response; the writer
// goroutine acknowledges once the commit ticket is durable.
// Operation-level failures produce ERR responses and keep the
// connection; protocol violations produce an ERR response (best effort)
// and close it.
func (s *Server) handleConn(conn net.Conn) {
	log := s.cfg.Log.With("remote", conn.RemoteAddr().String())
	log.Debug("conn accepted")
	defer log.Debug("conn closed")
	r := bufio.NewReaderSize(conn, 1<<16)
	w := bufio.NewWriterSize(conn, 1<<16)

	items := make(chan connItem, connPipeDepth)
	bufs := make(chan []byte, connPipeDepth)
	writerDone := make(chan struct{})
	go s.connWriter(conn, w, items, bufs, writerDone)

	rep, repReq := s.connReader(conn, r, log, items, bufs)
	close(items)
	<-writerDone
	if rep {
		// The connection leaves request/response mode for good: it becomes
		// a one-way replication stream until either side hangs up. The
		// writer has drained and exited, so the stream owns the socket.
		s.metrics.ObserveRequest(repReq.Op, 0, false)
		log.Info("replication subscriber attached", "seq", repReq.Seq, "off", repReq.Off)
		s.serveReplication(conn, w, repReq)
	}
}

// connReader is the connection's decode+dispatch loop. It returns with
// rep=true when the connection switches to replication streaming.
func (s *Server) connReader(conn net.Conn, r *bufio.Reader, log *slog.Logger, items chan<- connItem, bufs <-chan []byte) (rep bool, repReq wire.Request) {
	var (
		reqBuf     []byte
		keyScratch [][]byte
		batch      mpcbf.BatchScratch // batch planning, reused per request
	)
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		payload, err := wire.ReadFrame(r, reqBuf, s.cfg.MaxFrameBytes)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				items <- connItem{buf: wire.AppendErr(nil, err.Error())}
			} else if !isExpectedClose(err) {
				log.Warn("read failed", "error", err)
			}
			return false, wire.Request{}
		}
		reqBuf = payload[:0]
		s.metrics.AddBytes(4+len(payload), 0)

		// Every request gets an ID; a sampled or client-traced one also
		// gets a stage trace (tr is nil otherwise, and every tr method is
		// a no-op).
		id, tr := s.tracer.beginFrame(payload)
		tDec := tr.now()
		req, err := wire.DecodeRequestInto(payload, keyScratch)
		if cap(req.Keys) > cap(keyScratch) {
			keyScratch = req.Keys
		}
		if err != nil {
			// Protocol violation: framing can no longer be trusted. Queue
			// the ERR (in order, after any in-flight responses) and close.
			items <- connItem{buf: wire.AppendErr(nil, err.Error())}
			return false, wire.Request{}
		}
		tr.addDecode(tDec)
		if req.Traced {
			// The envelope carries the client's ids into the span.
			tr.setContext(req.TraceID, req.ParentSpan)
		}
		tr.setNS(req.NS)

		if req.Op == wire.OpReplicate {
			return true, req
		}

		start := time.Now()
		var buf []byte
		select {
		case buf = <-bufs:
		default: // free list empty: first requests, or writer still owns them
		}
		resp, ticket, opFailed := s.dispatch(req, buf[:0], tr, &batch)
		// The request payload and key scratch are dead here — dispatch has
		// copied what it keeps (filter state, WAL pending bytes) — so the
		// reader can safely reuse them for the next frame while the writer
		// waits out this response's commit.
		item := connItem{
			id: id, op: req.Op, ticket: ticket, buf: resp,
			failed: opFailed, observe: true, start: start, tr: tr,
		}
		if tr != nil || s.tracer.slowNs > 0 {
			item.keys, item.keyBytes = requestSize(req)
		}
		items <- item
		if s.closed.Load() {
			return false, wire.Request{} // draining: the writer flushes what's queued
		}
	}
}

// connWriter drains the response queue in order: wait for each item's
// WAL ticket to be durable, then write the frame. A commit failure
// rewrites the response to ERR — the mutation was applied but its
// durability is unknown, and acking would break the SyncAlways contract.
// After a write failure the writer keeps draining (the reader may be
// blocked mid-enqueue) without touching the socket.
func (s *Server) connWriter(conn net.Conn, w *bufio.Writer, items chan connItem, bufs chan<- []byte, done chan<- struct{}) {
	defer close(done)
	alive := true
	for item := range items {
		if err := s.store.waitDurable(item.ticket, item.tr); err != nil {
			item.buf = wire.AppendErr(item.buf[:0], err.Error())
			item.failed = true
		}
		if alive {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			err := wire.WriteFrame(w, item.buf)
			if err == nil && len(items) == 0 {
				// Flush only when the queue is empty: back-to-back pipelined
				// responses coalesce into fewer syscalls.
				err = w.Flush()
			}
			if err == nil {
				s.metrics.AddBytes(0, 4+len(item.buf))
			} else {
				alive = false
				conn.Close() // fail the reader fast; it owns shutdown
			}
		}
		if item.observe {
			// After the write+flush so the latency histogram covers the
			// full decode→apply→commit→respond path, matching what the
			// pre-pipelining serial loop measured.
			s.metrics.ObserveRequest(item.op, time.Since(item.start), item.failed)
		}
		if item.observe && (item.tr != nil || s.tracer.slowNs > 0) {
			// Off the hot path: only sampled requests or servers with a
			// slow threshold configured ever get here.
			total := time.Since(item.start)
			if item.tr != nil {
				total = time.Since(item.tr.entry.Start)
			}
			s.tracer.finish(item.id, item.tr, item.op, item.keys, item.keyBytes, total, item.failed)
		}
		if cap(item.buf) <= connRecycleCap {
			select {
			case bufs <- item.buf:
			default:
			}
		}
	}
}

// requestSize reports a request's key count and payload byte volume for
// trace entries.
func requestSize(req wire.Request) (keys, keyBytes int) {
	if req.Keys != nil {
		n := 0
		for _, k := range req.Keys {
			n += len(k)
		}
		return len(req.Keys), n
	}
	if req.Key != nil {
		return 1, len(req.Key)
	}
	return 0, 0
}

// dispatch executes one decoded request against the store and encodes
// the response into dst. Every op addresses one filter by namespace
// name — the empty name is the default filter — through one
// implementation per op. Mutations are applied and WAL-enqueued but NOT
// yet durable: the returned ticket names the commit the caller must wait
// out (store.waitDurable) before releasing the response. Reads return
// ticket 0 — nothing to wait for. Batch reads run on the calling
// goroutine in the connection's scratch sc (nil: fresh).
func (s *Server) dispatch(req wire.Request, dst []byte, tr *reqTrace, sc *mpcbf.BatchScratch) (resp []byte, ticket uint64, opFailed bool) {
	if s.cfg.ReadOnly && wire.IsMutation(req.Op) {
		return wire.AppendReadOnly(dst, s.cfg.PrimaryAddr), 0, true
	}
	// A name is validated here at operation level: a bad name fails one
	// request with ERR, never the connection (the wire decoder accepts any
	// u8-length name so framing stays intact).
	if len(req.NS) != 0 {
		if err := wire.ValidateNamespace(string(req.NS)); err != nil {
			return errResp(dst, err)
		}
	}
	st := s.store
	switch req.Op {
	case wire.OpInsert, wire.OpDelete, wire.OpInsertBatch, wire.OpInsertTTL, wire.OpInsertTTLBatch:
		_, ticket, err := st.mutateEnq(req.Op, req.NS, req.Key, req.Keys, durationFromNanos(req.TTL), sc, tr)
		return ack(dst, ticket, err)
	case wire.OpDeleteBatch:
		ok, ticket, err := st.mutateEnq(req.Op, req.NS, nil, req.Keys, 0, sc, tr)
		if err != nil {
			// WAL failure: the durable outcome is unknown; fail loudly.
			return errResp(dst, err)
		}
		return wire.AppendBools(wire.AppendOK(dst), ok), ticket, false
	case wire.OpImport:
		ticket, err := st.importEnq(req.NS, req.Blob, tr)
		return ack(dst, ticket, err)
	case wire.OpContains:
		t0 := tr.now()
		f, pin, err := st.live(req.NS)
		ok := f != nil && f.Contains(req.Key)
		pin.Unpin()
		tr.addFilter(t0)
		if err != nil {
			return errResp(dst, err)
		}
		return wire.AppendBool(wire.AppendOK(dst), ok), 0, false
	case wire.OpEstimate:
		t0 := tr.now()
		f, pin, err := st.live(req.NS)
		n := 0
		if f != nil {
			n = f.EstimateCount(req.Key)
		}
		pin.Unpin()
		tr.addFilter(t0)
		if err != nil {
			return errResp(dst, err)
		}
		return wire.AppendU64(wire.AppendOK(dst), uint64(n)), 0, false
	case wire.OpContainsBatch:
		t0 := tr.now()
		flags, err := st.containsBatch(req.NS, req.Keys, sc)
		tr.addFilter(t0)
		if err != nil {
			return errResp(dst, err)
		}
		return wire.AppendBools(wire.AppendOK(dst), flags), 0, false
	case wire.OpLen:
		return wire.AppendU64(wire.AppendOK(dst), uint64(st.nsLen(req.NS))), 0, false
	case wire.OpDump:
		data, err := st.marshal(req.NS)
		if err != nil {
			return errResp(dst, err)
		}
		return append(wire.AppendOK(dst), data...), 0, false
	case wire.OpWindowStats:
		ws, err := st.windowStats(req.NS)
		if err != nil {
			return errResp(dst, err)
		}
		return appendWindowStats(dst, ws), 0, false
	case wire.OpElasticStats:
		es, err := st.elasticStats(req.NS)
		if err != nil {
			return errResp(dst, err)
		}
		return wire.AppendElasticStats(wire.AppendOK(dst), es), 0, false
	case wire.OpNsStats:
		ns, err := st.NsStats(req.NS)
		if err != nil {
			return errResp(dst, err)
		}
		return wire.AppendNsStats(wire.AppendOK(dst), ns), 0, false
	case wire.OpNsCreate, wire.OpNsDrop:
		if len(req.NS) == 0 {
			// Creating or dropping the default filter is meaningless.
			return wire.AppendErr(dst, "namespace name required"), 0, true
		}
		var err error
		if req.Op == wire.OpNsCreate {
			ticket, err = st.nsCreateEnq(req.NS, req.NsCfg, tr)
		} else {
			ticket, err = st.nsDropEnq(req.NS, tr)
		}
		return ack(dst, ticket, err)
	case wire.OpNsList:
		return wire.AppendNsList(wire.AppendOK(dst), st.NsList()), 0, false
	case wire.OpRingSet:
		return s.ringSet(req.Ring, dst), 0, false
	case wire.OpRingGet:
		var r wire.Ring
		if cur := s.ring.Load(); cur != nil {
			r = *cur
		}
		return wire.AppendRing(wire.AppendOK(dst), r), 0, false
	}
	return wire.AppendErr(dst, "unknown opcode"), 0, true
}

// ack answers a mutation: OK carrying the commit ticket the writer waits
// out, or ERR.
func ack(dst []byte, ticket uint64, err error) ([]byte, uint64, bool) {
	if err != nil {
		return errResp(dst, err)
	}
	return wire.AppendOK(dst), ticket, false
}

// errResp answers an operation-level failure.
func errResp(dst []byte, err error) ([]byte, uint64, bool) {
	return wire.AppendErr(dst, err.Error()), 0, true
}

// ringSet adopts a pushed partition map if its epoch is newer than the
// one held; a stale push answers OK too (idempotent — the coordinator
// retries pushes, and racing pushes resolve by epoch everywhere).
func (s *Server) ringSet(r wire.Ring, dst []byte) []byte {
	for {
		cur := s.ring.Load()
		if cur != nil && r.Epoch <= cur.Epoch {
			return wire.AppendOK(dst)
		}
		cp := r
		cp.Old = append([]string(nil), r.Old...)
		cp.New = append([]string(nil), r.New...)
		if s.ring.CompareAndSwap(cur, &cp) {
			s.ringAdopted.Store(time.Now().UnixNano())
			s.cfg.Log.Info("ring adopted", "epoch", cp.Epoch, "joint", cp.Joint,
				"old", len(cp.Old), "new", len(cp.New))
			return wire.AppendOK(dst)
		}
	}
}

// appendWindowStats encodes an OK + window-stats response.
func appendWindowStats(dst []byte, st window.Stats) []byte {
	ws := wire.WindowStats{
		Generations:      uint32(st.Generations),
		Head:             uint32(st.Head),
		Rotations:        st.Rotations,
		SpanNanos:        uint64(st.Span),
		RotateEveryNanos: uint64(st.RotateEvery),
		GenItems:         make([]uint64, len(st.GenItems)),
	}
	for i, n := range st.GenItems {
		ws.GenItems[i] = uint64(n)
	}
	return wire.AppendWindowStats(wire.AppendOK(dst), ws)
}

// durationFromNanos converts a wire TTL to a duration; values past
// MaxInt64 nanoseconds map to -1, which the store treats as full-span.
func durationFromNanos(ns uint64) time.Duration {
	if ns > 1<<63-1 {
		return -1
	}
	return time.Duration(ns)
}

func isExpectedClose(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true // idle timeout or shutdown wake-up
	}
	return false
}
