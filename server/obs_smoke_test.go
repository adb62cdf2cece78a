package server

// Observability smoke test against the real mpcbfd binary: boot it with
// tracing, JSON logs, and the debug listener enabled, drive a small
// workload, and scrape every operational endpoint. Each must answer 200
// with a parseable body — this is what `make obs-smoke` runs in CI.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/e2e"
)

// httpGetStatus fetches a URL with retries (the sidecar may lag the TCP
// listener by a beat) and returns the final status code and body.
func httpGetStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				t.Fatalf("GET %s: read body: %v", url, rerr)
			}
			return resp.StatusCode, string(body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s never answered: %v", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs the daemon binary")
	}
	bin := e2e.BuildDaemon(t)
	addr, httpAddr, debugAddr := e2e.FreePort(t), e2e.FreePort(t), e2e.FreePort(t)
	d := e2e.StartDaemon(t, e2e.DaemonConfig{Bin: bin, Dir: t.TempDir(), Addr: addr, HTTPAddr: httpAddr,
		Extra: []string{
			"-debug-addr", debugAddr,
			"-trace-sample", "1", "-slow-op", "1ns",
			"-log-format", "json", "-log-level", "debug"}})

	c := e2e.DialRetry(t, addr)
	defer c.Close()
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte(strings.Repeat("k", 4) + string(rune('a'+i%26)))
	}
	if err := c.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Contains(keys[0]); err != nil {
		t.Fatal(err)
	}

	// /metrics: 200 and a well-formed Prometheus text document.
	code, metrics := httpGetStatus(t, "http://"+httpAddr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d\n%s", code, d)
	}
	if p := parseProm(t, metrics); p.samples == 0 {
		t.Fatal("/metrics had no samples")
	}

	// /debug/vars: 200 and valid JSON with the mpcbfd var present.
	code, vars := httpGetStatus(t, "http://"+httpAddr+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars = %d", code)
	}
	var varsDoc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &varsDoc); err != nil {
		t.Fatalf("/debug/vars unparseable: %v", err)
	}
	if _, ok := varsDoc["mpcbfd"]; !ok {
		t.Error("/debug/vars missing mpcbfd var")
	}

	// /readyz and /healthz: both 200 on a live primary.
	for _, path := range []string{"/readyz", "/healthz"} {
		if code, _ := httpGetStatus(t, "http://"+httpAddr+path); code != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, code)
		}
	}

	// /debug/requests: 200, valid JSON, and traced entries (sample=1).
	code, reqs := httpGetStatus(t, "http://"+httpAddr+"/debug/requests")
	if code != http.StatusOK {
		t.Fatalf("/debug/requests = %d", code)
	}
	var rep TraceReport
	if err := json.Unmarshal([]byte(reqs), &rep); err != nil {
		t.Fatalf("/debug/requests unparseable: %v", err)
	}
	if rep.Sampled == 0 || len(rep.Recent) == 0 {
		t.Errorf("no sampled traces with -trace-sample 1: %+v", rep)
	}

	// /debug/traces: a TRACE-enveloped request must land a span keyed by
	// its propagated trace id, with WAL position and commit-round
	// attribution for the mutation.
	tc := client.NewTrace()
	if err := c.Traced(tc).Insert([]byte("traced-smoke-key")); err != nil {
		t.Fatal(err)
	}
	// The span is recorded after the response is flushed, so the client
	// can see the ack first: poll briefly for it.
	var trep TracesReport
	var span *TraceEntry
	for deadline := time.Now().Add(5 * time.Second); span == nil; time.Sleep(20 * time.Millisecond) {
		code, traces := httpGetStatus(t, "http://"+httpAddr+"/debug/traces")
		if code != http.StatusOK {
			t.Fatalf("/debug/traces = %d", code)
		}
		trep = TracesReport{}
		if err := json.Unmarshal([]byte(traces), &trep); err != nil {
			t.Fatalf("/debug/traces unparseable: %v", err)
		}
		for i := range trep.Spans {
			if trep.Spans[i].TraceID == tc.String() {
				span = &trep.Spans[i]
			}
		}
		if span == nil && time.Now().After(deadline) {
			t.Fatalf("no span with trace id %s in /debug/traces (traced=%d)", tc, trep.Traced)
		}
	}
	if span.RoundSeq == 0 {
		t.Errorf("traced insert span missing commit-round attribution: %+v", *span)
	}
	if span.WALSeq == 0 {
		t.Errorf("traced insert span missing WAL position: %+v", *span)
	}
	if span.DecodeNs <= 0 {
		t.Errorf("traced insert span missing the decode stage: %+v", *span)
	}

	// Debug listener: pprof goroutine dump must mention this process's
	// goroutines; /debug/vars rides along.
	code, prof := httpGetStatus(t, "http://"+debugAddr+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Fatalf("pprof goroutine = %d", code)
	}
	if !strings.Contains(prof, "goroutine profile:") {
		t.Errorf("pprof goroutine dump malformed:\n%.200s", prof)
	}
	if code, _ = httpGetStatus(t, "http://"+debugAddr+"/debug/vars"); code != http.StatusOK {
		t.Errorf("debug listener /debug/vars = %d", code)
	}

	// The daemon was started with -log-format json: every line of its
	// output must be machine-parseable, including slow-request warnings
	// (forced by -slow-op 1ns).
	sawSlow := false
	for _, line := range strings.Split(strings.TrimSpace(d.Output()), "\n") {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("daemon emitted non-JSON log line %q: %v", line, err)
		}
		if obj["msg"] == "slow request" {
			sawSlow = true
		}
	}
	if !sawSlow {
		t.Error("no slow-request warning in daemon logs with -slow-op 1ns")
	}
}
