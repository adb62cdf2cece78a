package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/server/wire"
)

// TestMaybeAppliedWithoutReconnect: a mutation that reached the daemon
// before the connection died may have been applied, whether or not the
// Client reconnects, so it gets ErrMaybeApplied and is counted.
func TestMaybeAppliedWithoutReconnect(t *testing.T) {
	addr := flakyServer(t, 1, func(req wire.Request) []byte { return wire.AppendOK(nil) })
	c, err := Dial(addr, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert([]byte("k")); !errors.Is(err, ErrMaybeApplied) {
		t.Fatalf("Insert read by a daemon that then hung up: err = %v, want ErrMaybeApplied", err)
	}
	if got := c.Stats().MaybeApplied; got != 1 {
		t.Fatalf("MaybeApplied = %d, want 1", got)
	}
}

// rejectConn is a connection whose kernel accepts none of a write: every
// Write fails with n = 0 and, like a reset, kills the connection, so a
// concurrent read fails too instead of waiting out its deadline.
type rejectConn struct{ net.Conn }

func (c rejectConn) Write([]byte) (int, error) {
	c.Conn.Close()
	return 0, errors.New("write rejected")
}

// TestNeverSentAttribution: a request none of whose frame the kernel
// accepted provably never reached the daemon, so it gets a plain error
// and counts nothing as maybe-applied — from a synchronous call, a
// one-request Flush (written inline) and a three-request Flush (written
// on a goroutine). With WithReconnect the synchronous call is retried.
func TestNeverSentAttribution(t *testing.T) {
	addr := fakeServer(t, func(req wire.Request) []byte { return wire.AppendOK(nil) })
	dial := func(opts ...Option) *Client {
		t.Helper()
		c, err := Dial(addr, append([]Option{WithTimeout(2 * time.Second)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.conn = rejectConn{c.conn}
		return c
	}
	plain := func(what string, c *Client, err error) {
		t.Helper()
		if err == nil || errors.Is(err, ErrMaybeApplied) {
			t.Fatalf("%s: err = %v, want a plain error", what, err)
		}
		if got := c.Stats().MaybeApplied; got != 0 {
			t.Fatalf("%s: MaybeApplied = %d, want 0", what, got)
		}
	}

	c := dial()
	plain("Insert", c, c.Insert([]byte("k")))

	for _, n := range []int{1, 3} {
		c := dial()
		p := c.Pipeline()
		for i := 0; i < n; i++ {
			p.Insert([]byte("k"))
		}
		res, err := p.Flush()
		plain(fmt.Sprintf("%d-request Flush", n), c, err)
		if len(res) != n {
			t.Fatalf("%d-request Flush: %d results", n, len(res))
		}
		for i, r := range res {
			plain(fmt.Sprintf("%d-request Flush, result %d", n, i), c, r.Err)
		}
	}

	c = dial(WithReconnect(2, time.Millisecond, time.Millisecond))
	if err := c.Insert([]byte("k")); err != nil {
		t.Fatalf("Insert with WithReconnect: %v, want a retry on a fresh connection", err)
	}
	if st := c.Stats(); st.Retries != 1 || st.Redials != 1 || st.MaybeApplied != 0 {
		t.Fatalf("Stats = %+v, want 1 retry, 1 redial, 0 maybe-applied", st)
	}
}

// allocServer answers every request without allocating, since
// testing.AllocsPerRun counts the whole process: Contains gets true,
// ContainsBatch 16 flags, and anything else a bare OK.
func allocServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ok := wire.AppendOK(nil)
	yes := wire.AppendBool(wire.AppendOK(nil), true)
	flags := wire.AppendBools(wire.AppendOK(nil), make([]bool, 16))
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
				var buf []byte
				for {
					payload, err := wire.ReadFrame(r, buf, 0)
					if err != nil {
						return
					}
					buf = payload[:0]
					resp := ok
					switch payload[0] {
					case wire.OpContains:
						resp = yes
					case wire.OpContainsBatch:
						resp = flags
					}
					if err := wire.WriteFrame(w, resp); err != nil {
						return
					}
					if err := w.Flush(); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestExchangeAllocs pins what one exchange allocates in steady state:
// nothing for a synchronous call or a one-request Flush, which write
// inline, and at most 3 for a Flush that writes on a goroutine.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	c, err := Dial(allocServer(t), WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := []byte("alloc-key")
	keys := make([][]byte, 16)
	for i := range keys {
		keys[i] = key
	}
	var flags []bool
	p := c.Pipeline()
	flush := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				switch i % 3 {
				case 0:
					p.ContainsBatch(keys)
				case 1:
					p.Contains(key)
				default:
					p.Insert(key)
				}
			}
			if _, err := p.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"Insert", 0, func() {
			if err := c.Insert(key); err != nil {
				t.Fatal(err)
			}
		}},
		{"Contains", 0, func() {
			if _, err := c.Contains(key); err != nil {
				t.Fatal(err)
			}
		}},
		{"ContainsBatchInto", 0, func() {
			if flags, err = c.ContainsBatchInto(keys, flags[:0]); err != nil {
				t.Fatal(err)
			}
		}},
		{"1-request Flush", 0, flush(1)},
		{"8-request Flush", 3, flush(8)},
	} {
		tc.run() // grow the reused buffers
		if avg := testing.AllocsPerRun(100, tc.run); avg > tc.max {
			t.Errorf("%s: %.1f allocs/op, want at most %.0f", tc.name, avg, tc.max)
		}
	}
}
