package cluster

// Distributed-tracing end-to-end test against real mpcbfd binaries: two
// primaries plus a replica of the first, a TRACE-enveloped batch fanned
// out by the cluster client (and a second one in a namespace), then the
// acceptance bar — the same trace id present in every owning primary's
// /debug/traces ring with WAL position and commit-round attribution,
// the namespaced trace's spans naming their namespace, the replica's
// apply span joinable to the primary span by WAL-offset containment,
// and the replication-lag-in-time gauge reading ≈ 0 on the quiesced
// pair.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/e2e"
	"repro/server"
)

// scrapeTraces fetches and decodes one node's /debug/traces document,
// retrying while the HTTP sidecar comes up.
func scrapeTraces(t *testing.T, httpAddr string) server.TracesReport {
	t.Helper()
	var rep server.TracesReport
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + httpAddr + "/debug/traces")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&rep)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("decode /debug/traces from %s: %v", httpAddr, err)
			}
			return rep
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s/debug/traces never answered: %v", httpAddr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// spansWithID returns the request spans carrying the given trace id.
func spansWithID(rep server.TracesReport, id string) []server.TraceEntry {
	var out []server.TraceEntry
	for _, sp := range rep.Spans {
		if sp.TraceID == id {
			out = append(out, sp)
		}
	}
	return out
}

func TestClusterTraceE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test builds and runs the daemon binary")
	}
	bin := e2e.BuildDaemon(t)

	p1, p2, r1 := e2e.FreePort(t), e2e.FreePort(t), e2e.FreePort(t)
	p1http, p2http, r1http := e2e.FreePort(t), e2e.FreePort(t), e2e.FreePort(t)
	e2e.StartDaemon(t, e2e.DaemonConfig{Bin: bin, Dir: filepath.Join(t.TempDir(), "p1"), Addr: p1, HTTPAddr: p1http})
	e2e.StartDaemon(t, e2e.DaemonConfig{Bin: bin, Dir: filepath.Join(t.TempDir(), "p2"), Addr: p2, HTTPAddr: p2http})
	e2e.StartDaemon(t, e2e.DaemonConfig{Bin: bin, Dir: filepath.Join(t.TempDir(), "r1"), Addr: r1, HTTPAddr: r1http, ReplicateFrom: p1})
	e2e.DialRetry(t, p1).Close()
	e2e.DialRetry(t, p2).Close()

	cl, err := NewClient(ClientConfig{Nodes: []Node{{Primary: p1}, {Primary: p2}}, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One trace context for one logical batch; rendezvous hashing over 64
	// keys all but guarantees both primaries own a sub-batch.
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("trace-e2e-%03d", i))
	}
	tc := client.NewTrace()
	if err := cl.Traced(tc).InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	// A traced read fans out too; its spans share the same id.
	if _, err := cl.Traced(tc).ContainsBatch(keys); err != nil {
		t.Fatal(err)
	}
	// A namespaced handle carries its own trace across the cluster the
	// same way, routed on (namespace, key).
	const traceNS = "trace-ns"
	tc2 := client.NewTrace()
	if err := cl.Namespace(traceNS).Traced(tc2).InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Namespace(traceNS).Traced(tc2).ContainsBatch(keys); err != nil {
		t.Fatal(err)
	}

	// The tentpole assertion: the ONE propagated trace id appears in
	// every fanned-out node's ring, and each primary's mutation span
	// carries WAL position plus group-commit attribution.
	var p1Spans []server.TraceEntry
	for _, httpAddr := range []string{p1http, p2http} {
		rep := scrapeTraces(t, httpAddr)
		spans := spansWithID(rep, tc.String())
		if len(spans) == 0 {
			t.Fatalf("node %s has no span for trace %s (traced=%d)", httpAddr, tc, rep.Traced)
		}
		foundMutation := false
		for _, sp := range spans {
			if sp.Op != "insert_batch" {
				continue
			}
			foundMutation = true
			if sp.WALSeq == 0 {
				t.Errorf("node %s: insert_batch span missing WAL position: %+v", httpAddr, sp)
			}
			if sp.RoundSeq == 0 || sp.RoundRecs == 0 {
				t.Errorf("node %s: insert_batch span missing commit-round attribution: %+v", httpAddr, sp)
			}
			// The envelope forces the trace before decoding, so an
			// unsampled request still times its decode stage.
			if sp.DecodeNs <= 0 {
				t.Errorf("node %s: insert_batch span missing the decode stage: %+v", httpAddr, sp)
			}
		}
		if !foundMutation {
			t.Errorf("node %s: no insert_batch span under trace %s", httpAddr, tc)
		}
		nsOps := map[string]bool{}
		for _, sp := range spansWithID(rep, tc2.String()) {
			if sp.NS != traceNS {
				t.Errorf("node %s: span under trace %s has ns %q, want %q: %+v", httpAddr, tc2, sp.NS, traceNS, sp)
			}
			nsOps[sp.Op] = true
		}
		if !nsOps["insert_batch"] || !nsOps["contains_batch"] {
			t.Errorf("node %s: namespaced trace %s holds ops %v, want insert_batch and contains_batch", httpAddr, tc2, nsOps)
		}
		if httpAddr == p1http {
			p1Spans = spans
		}
	}

	// Replica join: the replica's apply ring must contain a span whose
	// WAL range [wal_off, wal_end) covers primary 1's mutation offset in
	// the same segment — the stitcher's join key.
	joined := false
	deadline := time.Now().Add(20 * time.Second)
	for !joined && time.Now().Before(deadline) {
		rep := scrapeTraces(t, r1http)
		for _, a := range rep.ReplicaApplies {
			for _, sp := range p1Spans {
				if sp.Op == "insert_batch" && a.WALSeq == sp.WALSeq &&
					sp.WALOff >= a.WALOff && sp.WALOff < a.WALEnd {
					joined = true
					if !a.Replica || a.Keys == 0 {
						t.Errorf("joined apply span malformed: %+v", a)
					}
				}
			}
		}
		if !joined {
			time.Sleep(100 * time.Millisecond)
		}
	}
	if !joined {
		rep := scrapeTraces(t, r1http)
		t.Fatalf("no replica apply span covers primary 1's mutation offset; applies=%d p1Spans=%+v",
			rep.Applies, p1Spans)
	}

	// Quiesced pair: with nothing writing, heartbeats keep stamping the
	// stream, so the lag-in-time gauge must converge to ≈ 0 rather than
	// going stale. Two heartbeat periods (1s each) is plenty.
	time.Sleep(2500 * time.Millisecond)
	lag, ok := scrapeLagSeconds(t, r1http)
	if !ok {
		t.Fatal("mpcbfd_replica_lag_seconds missing from replica /metrics")
	}
	if lag < 0 || lag > 5 {
		t.Fatalf("quiesced replica lag = %gs, want ≈ 0 (heartbeats every 1s)", lag)
	}
	t.Logf("quiesced replica lag: %gs", lag)
}

// scrapeLagSeconds pulls mpcbfd_replica_lag_seconds off a node's
// /metrics exposition.
func scrapeLagSeconds(t *testing.T, httpAddr string) (float64, bool) {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatalf("GET %s/metrics: %v", httpAddr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "mpcbfd_replica_lag_seconds "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparseable lag sample %q: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}
