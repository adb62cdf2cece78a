package server

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/server/wire"
)

// startTestServer runs a server on a loopback port and returns a
// connected client. Everything is torn down with the test.
func startTestServer(t *testing.T, storeOpts StoreOptions, cfg Config) (*Server, *client.Client) {
	t.Helper()
	store, err := OpenStore(storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })

	srv := New(store, cfg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-serveDone; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})

	c, err := client.Dial(ln.Addr().String(), client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestServerRoundTrips(t *testing.T) {
	srv, c := startTestServer(t, testStoreOptions(t.TempDir()), Config{})

	key := []byte("round-trip")
	if err := c.Insert(key); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(key); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Contains(key)
	if err != nil || !ok {
		t.Fatalf("Contains = %v, %v", ok, err)
	}
	if n, err := c.EstimateCount(key); err != nil || n < 2 {
		t.Fatalf("EstimateCount = %d, %v", n, err)
	}
	if n, err := c.Len(); err != nil || n != 2 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	if err := c.Delete(key); err != nil {
		t.Fatal(err)
	}
	// Operation-level error keeps the connection usable.
	err = c.Delete([]byte("never-inserted"))
	var se *client.ServerError
	if !asServerError(err, &se) {
		t.Fatalf("Delete absent: err = %v, want ServerError", err)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("Len after failed delete = %d, %v (conn must survive)", n, err)
	}

	// Batch ops.
	keys := storeKeys("batch", 300)
	if err := c.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	got, err := c.ContainsBatch(append(keys[:5:5], []byte("absent-1"), []byte("absent-2")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !got[i] {
			t.Fatalf("batch false negative at %d", i)
		}
	}
	flags, err := c.DeleteBatch(append(keys[:10:10], []byte("ghost")))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !flags[i] {
			t.Fatalf("batch delete %d failed", i)
		}
	}
	if srv.Metrics().Ops(wire.OpInsertBatch) != 1 {
		t.Fatalf("insert_batch ops = %d", srv.Metrics().Ops(wire.OpInsertBatch))
	}
}

func asServerError(err error, target **client.ServerError) bool {
	if err == nil {
		return false
	}
	se, ok := err.(*client.ServerError)
	if ok {
		*target = se
	}
	return ok
}

func TestServerConcurrentClients(t *testing.T) {
	srv, seed := startTestServer(t, testStoreOptions(t.TempDir()), Config{})
	addr := srv.Addr().String()

	const (
		clients    = 8
		perClient  = 200
		batchEvery = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithTimeout(10*time.Second))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			var batch [][]byte
			for i := 0; i < perClient; i++ {
				k := []byte(fmt.Sprintf("c%d-k%d", id, i))
				if err := c.Insert(k); err != nil {
					errs <- err
					return
				}
				batch = append(batch, k)
				if len(batch) == batchEvery {
					got, err := c.ContainsBatch(batch)
					if err != nil {
						errs <- err
						return
					}
					for j, ok := range got {
						if !ok {
							errs <- fmt.Errorf("client %d: false negative %q", id, batch[j])
							return
						}
					}
					batch = batch[:0]
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := seed.Len(); err != nil || n != clients*perClient {
		t.Fatalf("Len = %d, %v, want %d", n, err, clients*perClient)
	}
}

func TestServerHTTPSidecar(t *testing.T) {
	srv, c := startTestServer(t, testStoreOptions(t.TempDir()), Config{})
	keys := storeKeys("http", 400)
	if err := c.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:25] {
		if ok, err := c.Contains(k); err != nil || !ok {
			t.Fatalf("Contains(%q) = %v, %v", k, ok, err)
		}
	}
	waitRequests(t, srv, 26)

	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	if body := httpGet(t, ts.URL+"/healthz"); !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %q", body)
	}
	metrics := httpGet(t, ts.URL+"/metrics")
	for _, want := range []string{
		`mpcbfd_requests_total{op="insert_batch"} 1`,
		`mpcbfd_requests_total{op="contains"} 25`,
		"mpcbfd_filter_len 400",
		"mpcbfd_filter_fill_ratio ",
		"mpcbfd_filter_saturated_words 0",
		"mpcbfd_wal_records_total 400",
		"mpcbfd_request_duration_seconds_bucket",
		"mpcbfd_request_duration_seconds_count 26",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Fill ratio reflects the workload: nonzero once keys are in.
	var fill float64
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "mpcbfd_filter_fill_ratio ") {
			fmt.Sscanf(line, "mpcbfd_filter_fill_ratio %g", &fill)
		}
	}
	if fill <= 0 || fill > 1 {
		t.Fatalf("fill ratio = %g, want (0, 1]", fill)
	}
	if body := httpGet(t, ts.URL+"/debug/vars"); !strings.Contains(body, "mpcbfd") {
		t.Fatalf("/debug/vars missing mpcbfd var")
	}
}

func TestServerFrameLimitAndProtocolErrors(t *testing.T) {
	srv, _ := startTestServer(t, testStoreOptions(t.TempDir()),
		Config{MaxFrameBytes: 1 << 10})
	addr := srv.Addr().String()

	// Oversized frame: ERR response, then the server hangs up.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<16)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.ReadFrame(conn, nil, 0)
	if err != nil {
		t.Fatalf("no ERR response to oversized frame: %v", err)
	}
	if status, body, _ := wire.DecodeStatus(resp); status != wire.StatusErr ||
		!strings.Contains(string(body), "exceeds") {
		t.Fatalf("status=%d body=%q", status, body)
	}

	// Unknown opcode: ERR response, connection closed after.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.WriteFrame(conn2, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err = wire.ReadFrame(conn2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if status, body, _ := wire.DecodeStatus(resp); status != wire.StatusErr ||
		!strings.Contains(string(body), "opcode") {
		t.Fatalf("status=%d body=%q", status, body)
	}
}

func TestServerConnLimit(t *testing.T) {
	srv, keep := startTestServer(t, testStoreOptions(t.TempDir()), Config{MaxConns: 1})
	// The helper's client occupies the single slot; additional dials are
	// accepted then immediately closed.
	if err := keep.Insert([]byte("occupies-slot")); err != nil {
		t.Fatal(err)
	}
	c2, err := client.Dial(srv.Addr().String(), client.WithTimeout(2*time.Second))
	if err == nil {
		defer c2.Close()
		if err := c2.Insert([]byte("should-fail")); err == nil {
			t.Fatal("second connection served beyond MaxConns=1")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Snapshot().Conns.Rejected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("rejection not recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	store, err := OpenStore(testStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, Config{}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String(), client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert([]byte("pre-shutdown")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after shutdown: %v", err)
	}
	// New connections are refused or immediately closed.
	if c2, err := client.Dial(ln.Addr().String(), client.WithTimeout(time.Second)); err == nil {
		if err := c2.Insert([]byte("post-shutdown")); err == nil {
			t.Fatal("insert succeeded after shutdown")
		}
		c2.Close()
	}
	// The drained state is intact and snapshot-able.
	if !store.Contains([]byte("pre-shutdown")) {
		t.Fatal("pre-shutdown mutation lost")
	}
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
}

// waitRequests blocks until srv has counted n requests. A connection's
// writer counts a request only after flushing its response, so a client
// can hold the answer to its last request before that count lands.
func waitRequests(t *testing.T, srv *Server, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); srv.Metrics().TotalOps() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("server counted %d requests, want %d", srv.Metrics().TotalOps(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	return sb.String()
}
