// Package client is a minimal, dependency-free Go client for mpcbfd's
// wire protocol (repro/server/wire): one TCP connection, synchronous
// request/response, safe for concurrent use (requests are serialized on
// the connection).
//
// By default a transport-level error permanently breaks a Client — the
// stream position can no longer be trusted — so every later call fails
// fast; dial a new Client to retry. WithReconnect opts into automatic
// redialing with bounded exponential backoff: idempotent reads
// (Contains, EstimateCount, Len, ContainsBatch, Dump) are retried
// transparently, while an interrupted mutation surfaces ErrMaybeApplied
// — the request may or may not have reached the daemon, and blindly
// re-sending it would double-count on a counting filter.
package client

import (
	"bufio"
	"crypto/rand"
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
// applied it. Match with errors.Is. Re-sending is the caller's call —
// on a counting filter a blind retry double-counts.
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
// Idempotent reads are retried up to attempts times in total, sleeping
// an exponential backoff (base, doubling, capped at max) between tries;
// interrupted mutations are never retried — they return ErrMaybeApplied
// and the next call redials. Zero arguments pick defaults (3 attempts,
// 50ms base, 2s cap).
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
	w        *bufio.Writer
	buf      []byte // reused request/response scratch
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
	d := net.Dialer{Timeout: c.timeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.attach(conn)
	return c, nil
}

func (c *Client) attach(conn net.Conn) {
	c.conn = conn
	c.r = bufio.NewReaderSize(conn, 1<<16)
	c.w = bufio.NewWriterSize(conn, 1<<16)
	c.err = nil
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

// exec runs one request, encoding it on every attempt (the scratch
// buffer is shared, so a retry cannot reuse a previous attempt's
// payload). Reconnect-enabled clients redial broken connections;
// transport failures retry idempotent ops with backoff and convert
// mutation interruptions to ErrMaybeApplied. Callers must not hold c.mu.
//
// dec, when non-nil, is invoked on the OK response body while the
// connection lock is still held: the body aliases the client's reused
// buffer, which the next request on this connection overwrites, so it
// must be decoded (or copied) before the lock is released — never
// retained.
func (c *Client) exec(req *wire.Request, dec func([]byte) error) error {
	if len(req.NS) > wire.MaxNamespaceLen {
		return fmt.Errorf("mpcbfd: namespace name %d bytes long (max %d)", len(req.NS), wire.MaxNamespaceLen)
	}
	c.stRequests.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if c.err != nil {
			if c.closed {
				return errors.New("mpcbfd: client closed")
			}
			if !c.reconnect {
				return fmt.Errorf("mpcbfd: client broken by earlier error: %w", c.err)
			}
			if err := c.redial(); err != nil {
				if attempt+1 >= c.attempts {
					return err
				}
				c.stRetries.Add(1)
				c.backoff(attempt)
				continue
			}
		}
		payload := wire.AppendRequest(c.scratch(), req)
		// Keep the grown buffer: AppendRequest appends into scratch, and
		// without writing the result back every call would regrow from the
		// response-sized buffer and allocate forever.
		c.buf = payload
		body, err := c.roundTrip(payload)
		if err == nil {
			if dec != nil {
				return dec(body)
			}
			return nil
		}
		var se *ServerError
		var ro *ReadOnlyError
		if errors.As(err, &se) || errors.As(err, &ro) {
			return err // operation-level: the stream is still in sync
		}
		if !c.reconnect {
			return err
		}
		if wire.IsMutation(req.Op) {
			// The request may have been applied before the connection
			// died; retrying could double-count. The broken connection is
			// left for the next call to redial.
			c.stMaybeApplied.Add(1)
			return fmt.Errorf("%w (%v)", ErrMaybeApplied, err)
		}
		if attempt+1 >= c.attempts {
			return err
		}
		c.stRetries.Add(1)
		c.backoff(attempt)
	}
}

// redial replaces a broken connection; callers hold c.mu.
func (c *Client) redial() error {
	c.conn.Close()
	d := net.Dialer{Timeout: c.timeout}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.attach(conn)
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

// roundTrip sends one request payload and returns the response body for
// an OK status, a *ServerError for an ERR status, and a *ReadOnlyError
// for a READONLY status.
//
// Any transport-level failure — a write or flush error, a failed or
// timed-out read, an undecodable response — leaves the stream position
// unknown: retrying on the same connection would read leftover bytes of
// the previous response and mis-attribute results. So such an error
// breaks the connection (it is closed, c.err set); without WithReconnect
// the Client is then permanently broken. Operation-level statuses do not
// break anything: the response frame was read whole and the stream is
// still in sync.
func (c *Client) roundTrip(payload []byte) ([]byte, error) {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if err := wire.WriteFrame(c.w, payload); err != nil {
		return nil, c.fail(err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.fail(err)
	}
	resp, err := wire.ReadFrame(c.r, c.buf[:0], c.maxFrame)
	if err != nil {
		return nil, c.fail(err)
	}
	c.buf = resp[:0]
	status, body, err := wire.DecodeStatus(resp)
	if err != nil {
		return nil, c.fail(err)
	}
	switch status {
	case wire.StatusOK:
		return body, nil
	case wire.StatusErr:
		return nil, &ServerError{Msg: string(body)}
	case wire.StatusReadOnly:
		return nil, &ReadOnlyError{Primary: string(body)}
	}
	return nil, c.fail(fmt.Errorf("mpcbfd: unknown status 0x%02x", status))
}

// fail marks the connection broken and closes it; callers hold c.mu.
func (c *Client) fail(err error) error {
	c.stTransportErr.Add(1)
	c.err = err
	c.conn.Close()
	return err
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

// scratch hands out the reused request buffer; callers hold c.mu.
func (c *Client) scratch() []byte { return c.buf[:0] }
