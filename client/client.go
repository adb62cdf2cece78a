// Package client is a minimal, dependency-free Go client for mpcbfd's
// wire protocol (repro/server/wire): one TCP connection, synchronous
// request/response, safe for concurrent use (requests are serialized on
// the connection).
//
// By default a transport-level error permanently breaks a Client — the
// stream position can no longer be trusted — so every later call fails
// fast; dial a new Client to retry. WithReconnect opts into automatic
// redialing with bounded exponential backoff. With or without it, and
// for synchronous calls and pipelines alike, one rule attributes a
// transport failure: an unanswered mutation whose bytes may have reached
// the daemon surfaces ErrMaybeApplied — it may or may not have been
// applied, and blindly re-sending it would double-count on a counting
// filter — and any other unanswered request gets a plain error.
package client

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prom"
	"repro/server/wire"
)

// ServerError is an operation-level failure reported by the daemon (e.g.
// deleting an absent key). The connection remains usable after one.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "mpcbfd: " + e.Msg }

// ReadOnlyError reports a mutation rejected by a read-only replica.
// Primary, when non-empty, is the address writes should go to instead.
// The connection remains usable after one.
type ReadOnlyError struct{ Primary string }

func (e *ReadOnlyError) Error() string {
	if e.Primary == "" {
		return "mpcbfd: server is read-only"
	}
	return "mpcbfd: server is read-only; writes go to " + e.Primary
}

// ErrMaybeApplied marks a mutation interrupted by a transport failure
// after the request left the client: the daemon may or may not have
// applied it. It is returned by synchronous calls and pipelines, with or
// without WithReconnect. Match with errors.Is. Re-sending is the
// caller's call — on a counting filter a blind retry double-counts.
var ErrMaybeApplied = errors.New("mpcbfd: connection lost mid-mutation; the daemon may have applied it")

// Option configures Dial.
type Option func(*Client)

// WithTimeout bounds each request round trip (default 10s, 0 disables).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithMaxFrame bounds response frames (default wire.DefaultMaxFrame).
func WithMaxFrame(n int) Option {
	return func(c *Client) { c.maxFrame = n }
}

// WithReconnect makes a broken Client redial instead of failing fast.
// A synchronous call is retried up to attempts times in total, sleeping
// an exponential backoff (base, doubling, capped at max) between tries,
// after every failure but ErrMaybeApplied: a failed redial, an
// interrupted read, or a request none of whose bytes left the client.
// A mutation that may have reached the daemon is never re-sent — it
// returns ErrMaybeApplied and the next call redials. Pipelines redial
// but never retry. Zero arguments pick defaults (3 attempts, 50ms base,
// 2s cap).
func WithReconnect(attempts int, base, max time.Duration) Option {
	return func(c *Client) {
		c.reconnect = true
		c.attempts = attempts
		c.backoffBase = base
		c.backoffMax = max
	}
}

// Client is a connection to an mpcbfd daemon. Its data operations are
// those of its zero Handle: the default filter, untraced.
type Client struct {
	Handle

	mu       sync.Mutex
	conn     net.Conn
	r        *bufio.Reader
	buf      []byte // reused request frame and response scratch
	err      error  // first transport error; non-nil = broken, stream position unknown
	closed   bool   // Close was called; reconnect never resurrects
	addr     string
	timeout  time.Duration
	maxFrame int

	reconnect   bool
	attempts    int
	backoffBase time.Duration
	backoffMax  time.Duration

	// Lifetime counters, atomic so Stats never contends with requests.
	stRequests     atomic.Uint64
	stTransportErr atomic.Uint64
	stRedials      atomic.Uint64
	stRetries      atomic.Uint64
	stMaybeApplied atomic.Uint64
}

// Stats is a point-in-time view of a Client's lifetime counters.
type Stats struct {
	Requests        uint64 `json:"requests"`         // operations attempted
	TransportErrors uint64 `json:"transport_errors"` // connection-breaking failures
	Redials         uint64 `json:"redials"`          // successful reconnects
	Retries         uint64 `json:"retries"`          // backoff sleeps before re-attempts
	MaybeApplied    uint64 `json:"maybe_applied"`    // mutations lost in transit (ErrMaybeApplied)
}

// Stats returns the connection's lifetime counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:        c.stRequests.Load(),
		TransportErrors: c.stTransportErr.Load(),
		Redials:         c.stRedials.Load(),
		Retries:         c.stRetries.Load(),
		MaybeApplied:    c.stMaybeApplied.Load(),
	}
}

// WriteProm appends the connection's counters to a Prometheus
// exposition, labeled by daemon address. When several Clients write to
// the same exposition each repeats the HELP/TYPE header for its series;
// Prometheus parsers accept that as long as the samples differ by label.
func (c *Client) WriteProm(w io.Writer) {
	st := c.Stats()
	emit := func(name, help string, v uint64) {
		prom.Family(w, name, "counter", help, "addr", 1, func(int) (string, uint64) { return c.addr, v })
	}
	emit("mpcbfd_client_requests_total", "Operations attempted on this connection.", st.Requests)
	emit("mpcbfd_client_transport_errors_total", "Connection-breaking transport failures.", st.TransportErrors)
	emit("mpcbfd_client_redials_total", "Successful reconnects.", st.Redials)
	emit("mpcbfd_client_retries_total", "Backoff sleeps before re-attempts.", st.Retries)
	emit("mpcbfd_client_maybe_applied_total", "Mutations interrupted in transit (ErrMaybeApplied).", st.MaybeApplied)
}

// Dial connects to an mpcbfd daemon at addr.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{addr: addr, timeout: 10 * time.Second, maxFrame: wire.DefaultMaxFrame}
	c.Handle = Handle{c: c}
	for _, o := range opts {
		o(c)
	}
	if c.attempts <= 0 {
		c.attempts = 3
	}
	if c.backoffBase <= 0 {
		c.backoffBase = 50 * time.Millisecond
	}
	if c.backoffMax <= 0 {
		c.backoffMax = 2 * time.Second
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials the daemon and makes the new connection current.
func (c *Client) connect() error {
	d := net.Dialer{Timeout: c.timeout}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn, c.r, c.err = conn, bufio.NewReaderSize(conn, 1<<16), nil
	return nil
}

// Close closes the connection. A closed Client stays closed even with
// WithReconnect.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.err == nil {
		c.err = errors.New("client closed")
	}
	return c.conn.Close()
}

// Trace is a distributed-trace context. An active Trace wraps the
// request in the wire TRACE envelope (outermost, before any NAMESPACED
// wrap), so the daemon upgrades it to a full per-stage span carrying
// these ids — visible at /debug/traces and stitchable across nodes by
// mpcbf-trace. The zero Trace is inactive and adds zero wire bytes.
type Trace struct {
	// ID is the 16-byte trace id shared by every span of one logical
	// operation, including all sub-batches of a cluster fan-out.
	ID [wire.TraceIDLen]byte
	// Parent is the client-side span id the request is a child of (0 for
	// a root span).
	Parent uint64
}

// NewTrace returns a Trace with a fresh random id.
func NewTrace() Trace {
	var t Trace
	if _, err := rand.Read(t.ID[:]); err != nil {
		panic("mpcbfd: trace id entropy unavailable: " + err.Error())
	}
	return t
}

// Active reports whether the Trace carries an id (the zero Trace does
// not and encodes nothing).
func (t Trace) Active() bool { return t.ID != [wire.TraceIDLen]byte{} }

// String renders the trace id as hex — the spelling /debug/traces and
// mpcbf-trace use.
func (t Trace) String() string { return hex.EncodeToString(t.ID[:]) }

// stamp sets r's trace fields from t: an active Trace wraps the request
// in the TRACE envelope, outermost, and the zero Trace leaves it
// untraced.
func (t Trace) stamp(r *wire.Request) {
	r.TraceID, r.ParentSpan, r.Traced = t.ID, t.Parent, t.Active()
}

// exec runs one request, framing it on every attempt (the previous
// attempt's response overwrote the shared buffer). With WithReconnect,
// every failure but ErrMaybeApplied is retried with backoff. Callers
// must not hold c.mu.
//
// dec, when non-nil, is invoked on the OK response body while the
// connection lock is still held: the body aliases the client's reused
// buffer, which the next request on this connection overwrites, so it
// must be decoded (or copied) before the lock is released — never
// retained. A dec error rejects a malformed body and breaks the
// connection.
func (c *Client) exec(req *wire.Request, dec func([]byte) error) error {
	if len(req.NS) > wire.MaxNamespaceLen {
		return fmt.Errorf("mpcbfd: namespace name %d bytes long (max %d)", len(req.NS), wire.MaxNamespaceLen)
	}
	c.stRequests.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		err := c.ready()
		if err == nil {
			// Keep the grown buffer: without writing the frame back, every
			// call would regrow from the response-sized buffer.
			c.buf = appendFrame(c.buf[:0], req)
			terr := c.exchange(c.buf, []pipeReq{{op: req.Op}}, func(_ int, body []byte, rerr error) error {
				if err = rerr; rerr == nil && dec != nil {
					return dec(body)
				}
				return nil
			})
			if terr == nil || errors.Is(err, ErrMaybeApplied) {
				return err
			}
		}
		if !c.reconnect || c.closed || attempt+1 >= c.attempts {
			return err
		}
		c.stRetries.Add(1)
		c.backoff(attempt)
	}
}

// ready readies the connection for an exchange: a closed Client, or a
// broken one without WithReconnect, fails, and a broken one with it
// redials. Callers hold c.mu.
func (c *Client) ready() error {
	switch {
	case c.err == nil:
		return nil
	case c.closed:
		return errors.New("mpcbfd: client closed")
	case !c.reconnect:
		return fmt.Errorf("mpcbfd: client broken by earlier error: %w", c.err)
	}
	if err := c.connect(); err != nil {
		return err
	}
	c.stRedials.Add(1)
	return nil
}

// backoff sleeps the capped exponential delay for a zero-based attempt
// number. It holds c.mu by design: the client serializes requests, and a
// queued request would fail against the same dead server anyway.
func (c *Client) backoff(attempt int) {
	d := c.backoffBase << attempt
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	time.Sleep(d)
}

// pipeReq locates one request in a run of frames. op is the inner
// opcode, even under a namespace envelope: what the operation does
// (Contains vs Insert) decides how its response decodes and whether an
// unanswered one may have been applied.
type pipeReq struct {
	op    byte
	start int // offset of the request's frame in the run
}

// appendFrame appends req to dst as one wire frame, [u32 len][payload].
func appendFrame(dst []byte, req *wire.Request) []byte {
	start := len(dst)
	dst = wire.AppendRequest(append(dst, 0, 0, 0, 0), req)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// exchange writes frames, the run of framed requests reqs, and reads
// their responses in order, handing each to got(i, body, err): err is
// nil for an OK status, whose body aliases c.buf until the next read, or
// the request's *ServerError or *ReadOnlyError. A non-nil return from
// got rejects a malformed body. Callers hold c.mu and have run ready.
//
// Any transport failure — a failed write or read, an undecodable or
// unknown status, a rejected body — leaves the stream position unknown,
// so it breaks the connection and is returned, and every request left
// unanswered gets got(i, nil, err) by one rule: a mutation whose frame
// starts below the count of bytes the kernel accepted may have been
// applied and gets ErrMaybeApplied; any other, a read or a request that
// provably never left, gets a plain error. Operation-level statuses
// break nothing: the response was read whole and the stream is in sync.
//
// One request is written inline before its read, so its frame may alias
// c.buf. More are written on a goroutine beside the reads: the daemon
// stops reading once its bounded response queue is full, so a burst
// written before reading could block both sides on full buffers.
func (c *Client) exchange(frames []byte, reqs []pipeReq, got func(i int, body []byte, err error) error) error {
	// The deadline is per response, not per exchange: a run of durable
	// mutations legitimately takes longer than one round trip, so each
	// response buys the next another window and only a stall fails. It
	// covers the concurrent write too: response progress means the
	// daemon is consuming our bytes.
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	type outcome struct {
		n   int
		err error
	}
	// Writing straight to the conn, not through a buffer, keeps the
	// count of bytes the kernel accepted observable.
	var written chan outcome
	sent, err := len(frames), error(nil)
	if len(reqs) == 1 {
		if n, werr := c.conn.Write(frames); werr != nil {
			sent, err = n, werr
		}
	} else {
		written = make(chan outcome, 1)
		go func() {
			n, werr := c.conn.Write(frames)
			written <- outcome{n, werr}
		}()
	}
	answered := 0
	for err == nil && answered < len(reqs) {
		if err = c.response(answered, got); err == nil {
			answered++
			if c.timeout > 0 && answered < len(reqs) {
				c.conn.SetDeadline(time.Now().Add(c.timeout))
			}
		}
	}
	if err != nil {
		// Break the connection before waiting on the writer: closing it
		// unblocks a write stalled on a dead peer's full buffers.
		c.fail(err)
	}
	if written != nil {
		if w := <-written; w.err != nil {
			sent = w.n
			if err == nil {
				// Every response arrived, so every result stands, but the
				// connection cannot be trusted for the next exchange.
				c.fail(w.err)
			}
		}
	}
	for i := answered; err != nil && i < len(reqs); i++ {
		if reqs[i].start < sent && wire.IsMutation(reqs[i].op) {
			c.stMaybeApplied.Add(1)
			got(i, nil, fmt.Errorf("%w (%v)", ErrMaybeApplied, err))
		} else {
			got(i, nil, fmt.Errorf("mpcbfd: request not completed: %w", err))
		}
	}
	return err
}

// response reads the next response and hands it to got as request i's;
// a non-nil return is a transport failure.
func (c *Client) response(i int, got func(int, []byte, error) error) error {
	payload, err := wire.ReadFrame(c.r, c.buf[:0], c.maxFrame)
	if err != nil {
		return err
	}
	c.buf = payload[:0]
	status, body, err := wire.DecodeStatus(payload)
	if err != nil {
		return err
	}
	switch status {
	case wire.StatusOK:
		return got(i, body, nil)
	case wire.StatusErr:
		return got(i, nil, &ServerError{Msg: string(body)})
	case wire.StatusReadOnly:
		return got(i, nil, &ReadOnlyError{Primary: string(body)})
	}
	return fmt.Errorf("mpcbfd: unknown status 0x%02x", status)
}

// fail marks the connection broken and closes it; callers hold c.mu.
func (c *Client) fail(err error) {
	c.stTransportErr.Add(1)
	c.err = err
	c.conn.Close()
}

// RingSet pushes a cluster ring descriptor to the daemon, which adopts
// it iff the epoch is newer than what it holds and answers OK either
// way — pushing an old descriptor is harmless, so retries are safe.
func (c *Client) RingSet(r wire.Ring) error {
	return c.do(wire.Request{Op: wire.OpRingSet, Ring: r}, nil)
}

// RingGet reads back the daemon's current ring descriptor. Epoch 0
// means no ring has been installed.
func (c *Client) RingGet() (wire.Ring, error) {
	var r wire.Ring
	err := c.do(wire.Request{Op: wire.OpRingGet}, func(body []byte) error {
		var rest []byte
		var err error
		r, rest, err = wire.DecodeRing(body)
		if err != nil {
			return fmt.Errorf("mpcbfd: ring_get response: %w", err)
		}
		if len(rest) != 0 {
			return errors.New("mpcbfd: ring_get response: trailing bytes")
		}
		return nil
	})
	if err != nil {
		return wire.Ring{}, err
	}
	return r, nil
}
