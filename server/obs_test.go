package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/server/wire"
)

// promParser validates the Prometheus text exposition format (0.0.4):
// HELP and TYPE precede a metric's samples, neither repeats, sample
// lines parse, histogram suffixes attach to their base family, and no
// series (name + label set) appears twice.
type promParser struct {
	helpSeen map[string]bool
	typeOf   map[string]string
	series   map[string]int
	samples  int
}

func parseProm(t *testing.T, text string) *promParser {
	t.Helper()
	p := &promParser{
		helpSeen: map[string]bool{},
		typeOf:   map[string]string{},
		series:   map[string]int{},
	}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Errorf("line %d: HELP without text: %q", ln+1, line)
			}
			if p.helpSeen[name] {
				t.Errorf("line %d: duplicate HELP for %s", ln+1, name)
			}
			p.helpSeen[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown TYPE %q", ln+1, typ)
			}
			if _, dup := p.typeOf[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			if !p.helpSeen[name] {
				t.Errorf("line %d: TYPE %s before its HELP", ln+1, name)
			}
			if len(p.series) > 0 {
				for s := range p.series {
					if metricFamily(seriesName(s), p.typeOf) == name {
						t.Errorf("line %d: TYPE %s after its samples", ln+1, name)
					}
				}
			}
			p.typeOf[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		// Sample: name[{labels}] value
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Errorf("line %d: malformed sample: %q", ln+1, line)
			continue
		}
		series, val := line[:idx], line[idx+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Errorf("line %d: unparseable value %q: %v", ln+1, val, err)
		}
		name := seriesName(series)
		family := metricFamily(name, p.typeOf)
		if !p.helpSeen[family] {
			t.Errorf("line %d: sample %s before HELP %s", ln+1, series, family)
		}
		if _, ok := p.typeOf[family]; !ok {
			t.Errorf("line %d: sample %s before TYPE %s", ln+1, series, family)
		}
		p.series[series]++
		if p.series[series] > 1 {
			t.Errorf("line %d: duplicate series %s", ln+1, series)
		}
		p.samples++
	}
	return p
}

// seriesName strips the label set off a sample's series identifier.
func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// metricFamily resolves a sample name to its declared family: histogram
// samples use the _bucket/_sum/_count suffixes of their base name.
func metricFamily(name string, typeOf map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && typeOf[base] == "histogram" {
			return base
		}
	}
	return name
}

// TestPromExpositionFormat drives a workload and validates the whole
// /metrics document against the text-format rules.
func TestPromExpositionFormat(t *testing.T) {
	srv, c := startTestServer(t, testStoreOptions(t.TempDir()), Config{TraceSample: 2})
	keys := storeKeys("prom", 300)
	if err := c.InsertBatch(keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:10] {
		if _, err := c.Contains(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	// Populate two namespaces so the {ns=...} families render.
	for _, name := range []string{"tenant-a", "tenant-b"} {
		if err := c.Namespace(name).Insert([]byte("ns-prom-key")); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	text := httpGet(t, ts.URL+"/metrics")
	p := parseProm(t, text)
	if p.samples == 0 {
		t.Fatal("no samples parsed")
	}
	for _, family := range []string{
		"mpcbfd_requests_total",
		"mpcbfd_request_duration_seconds",
		"mpcbfd_wal_fsync_duration_seconds",
		"mpcbfd_wal_batch_keys",
		"mpcbfd_shard_items",
		"mpcbfd_shard_inserts_total",
		"mpcbfd_goroutines",
		"mpcbfd_heap_alloc_bytes",
		"mpcbfd_gc_cycles_total",
		"mpcbfd_last_snapshot_age_seconds",
		"mpcbfd_trace_sampled_total",
		"mpcbfd_ready",
		"mpcbfd_ns_count",
		"mpcbfd_ns_items",
		"mpcbfd_ns_memory_bytes",
		"mpcbfd_ns_resident",
		"mpcbfd_ns_evictions_total",
		"mpcbfd_ns_recoveries_total",
		"mpcbfd_ns_reused_bytes_total",
	} {
		if _, ok := p.typeOf[family]; !ok {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	// One series per shard for the per-shard gauges.
	shards := 0
	for s := range p.series {
		if strings.HasPrefix(s, "mpcbfd_shard_items{") {
			shards++
		}
	}
	if want := srv.Store().Filter().Shards(); shards != want {
		t.Errorf("mpcbfd_shard_items series = %d, want %d", shards, want)
	}
	// One series per namespace for the per-namespace gauges.
	nsSeries := 0
	for s := range p.series {
		if strings.HasPrefix(s, "mpcbfd_ns_items{") {
			nsSeries++
		}
	}
	if nsSeries != 2 {
		t.Errorf("mpcbfd_ns_items series = %d, want 2", nsSeries)
	}
}

// TestScrapeRunsNoCommitRound: a scrape reads the WAL's position
// without running a commit round, so an INSERT dispatched but not yet
// waited out stays pending through /metrics and /debug/vars, and
// neither the commit count nor the segment file moves.
func TestScrapeRunsNoCommitRound(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(st, Config{}, nil)
	h := srv.HTTPHandler()

	_, ticket, _ := srv.dispatch(wire.Request{Op: wire.OpInsert, Key: []byte("unscraped")}, nil, nil, nil)
	if ticket == 0 {
		t.Fatal("INSERT enqueued no WAL record")
	}
	seq, _ := st.ReplicationPos()
	segSize := func() int64 {
		fi, err := os.Stat(walPath(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	commits, _ := st.WALGroupStats()
	size := segSize()
	for _, path := range []string{"/metrics", "/debug/vars"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		if c, _ := st.WALGroupStats(); c != commits {
			t.Errorf("GET %s ran %d commit rounds", path, c-commits)
		}
		if s := segSize(); s != size {
			t.Errorf("GET %s grew the WAL segment from %d to %d bytes", path, size, s)
		}
	}
	if err := st.waitDurable(ticket, nil); err != nil {
		t.Fatal(err)
	}
}

// TestExpvarMatchesProm asserts /debug/vars and /metrics agree — both
// are rendered from the same ServerSnapshot.
func TestExpvarMatchesProm(t *testing.T) {
	srv, c := startTestServer(t, testStoreOptions(t.TempDir()), Config{})
	if err := c.InsertBatch(storeKeys("drift", 200)); err != nil {
		t.Fatal(err)
	}
	if err := c.Namespace("drift-ns").InsertBatch(storeKeys("ns-drift", 50)); err != nil {
		t.Fatal(err)
	}
	waitRequests(t, srv, 2)

	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	var doc struct {
		Mpcbfd struct {
			Server ServerSnapshot `json:"server"`
		} `json:"mpcbfd"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/debug/vars")), &doc); err != nil {
		t.Fatalf("/debug/vars unparseable: %v", err)
	}
	snap := doc.Mpcbfd.Server

	if snap.Namespaces == nil || len(snap.Namespaces.Entries) != 1 {
		t.Fatalf("expvar namespaces slice missing or wrong size: %+v", snap.Namespaces)
	}
	nsEntry := snap.Namespaces.Entries[0]

	metrics := httpGet(t, ts.URL+"/metrics")
	for _, pair := range [][2]string{
		{"mpcbfd_filter_len", fmt.Sprintf("%d", snap.Filter.Len)},
		{"mpcbfd_wal_records_total", fmt.Sprintf("%d", snap.WAL.Records)},
		{"mpcbfd_replayed_records", fmt.Sprintf("%d", snap.WAL.ReplayedRecords)},
		{`mpcbfd_requests_total{op="insert_batch"}`, fmt.Sprintf("%d", snap.Ops["insert_batch"])},
		{"mpcbfd_ns_count", fmt.Sprintf("%d", snap.Namespaces.Totals.Count)},
		{`mpcbfd_ns_items{ns="drift-ns"}`, fmt.Sprintf("%d", nsEntry.Items)},
	} {
		if want := pair[0] + " " + pair[1]; !strings.Contains(metrics, want) {
			t.Errorf("/metrics disagrees with /debug/vars: missing %q", want)
		}
	}
	if snap.Filter.Len != 200 {
		t.Errorf("expvar filter len = %d, want 200", snap.Filter.Len)
	}
	if nsEntry.Name != "drift-ns" || nsEntry.Items != 50 || !nsEntry.Resident {
		t.Errorf("expvar namespace entry = %+v, want drift-ns with 50 resident items", nsEntry)
	}
	if !snap.Ready {
		t.Error("expvar snapshot not ready on a live server")
	}
}

// TestNsReusedBytesMetric churns two namespaces of one geometry under a
// quota that holds one: every touch recovers one into the arenas of the
// other, and mpcbfd_ns_reused_bytes_total rises by the state's size each
// time, in a /metrics document that still parses and agrees with the
// reused_bytes total of /debug/vars, rendered from the same snapshot.
func TestNsReusedBytesMetric(t *testing.T) {
	opts := testStoreOptions(t.TempDir())
	opts.NsQuota = 3 << 10
	srv, c := startTestServer(t, opts, Config{})
	cfg := wire.NsConfig{MemoryBits: 1 << 14, ExpectedItems: 512, Shards: 2}
	names := []string{"reuse-a", "reuse-b"}
	for _, name := range names {
		if err := c.CreateNamespace(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	reused := func() uint64 {
		t.Helper()
		text := httpGet(t, ts.URL+"/metrics")
		p := parseProm(t, text)
		if typ := p.typeOf["mpcbfd_ns_reused_bytes_total"]; typ != "counter" {
			t.Fatalf("mpcbfd_ns_reused_bytes_total has TYPE %q, want counter", typ)
		}
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, "mpcbfd_ns_reused_bytes_total "); ok {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatal("/metrics has no mpcbfd_ns_reused_bytes_total sample")
		return 0
	}
	last := reused()
	const touches = 6
	for i := 0; i < touches; i++ {
		name := names[i%2]
		if err := c.Namespace(name).Insert([]byte(fmt.Sprintf("%s-%d", name, i))); err != nil {
			t.Fatal(err)
		}
		if now := reused(); now <= last {
			t.Fatalf("touch %d of %s: reused bytes %d -> %d, want a rise", i, name, last, now)
		} else {
			last = now
		}
	}

	var doc struct {
		Mpcbfd struct {
			Server ServerSnapshot `json:"server"`
		} `json:"mpcbfd"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/debug/vars")), &doc); err != nil {
		t.Fatalf("/debug/vars unparseable: %v", err)
	}
	if ns := doc.Mpcbfd.Server.Namespaces; ns == nil || ns.Totals.ReusedBytes != last {
		t.Fatalf("/debug/vars namespaces %+v, want reused_bytes %d as in /metrics", ns, last)
	}
}

// TestReadyz exercises the liveness/readiness split: /healthz stays 200
// while /readyz follows the Ready gate and the shutdown drain.
func TestReadyz(t *testing.T) {
	ready := true
	srv, _ := startTestServer(t, testStoreOptions(t.TempDir()), Config{
		Ready: func() bool { return ready },
	})
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200", got)
	}
	ready = false // e.g. replica fell behind / never bootstrapped
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with Ready()==false = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz must stay 200 while unready, got %d", got)
	}
	ready = true
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz recovered = %d, want 200", got)
	}

	// Shutdown drain: the process is still alive (healthz 200) but must
	// stop receiving traffic (readyz 503). Shutdown is idempotent, so the
	// test cleanup's second call is harmless.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", got)
	}
}

// TestDebugRequestsJSON validates the /debug/requests document: shape,
// sampling accounting, and per-stage timings on sampled entries.
func TestDebugRequestsJSON(t *testing.T) {
	srv, c := startTestServer(t, testStoreOptions(t.TempDir()), Config{
		TraceSample: 1, // trace everything
		SlowOp:      time.Nanosecond,
		Log:         discardLog(),
	})
	if err := c.Insert([]byte("traced-key")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Contains([]byte("traced-key")); err != nil {
		t.Fatal(err)
	}
	// The writer records a sampled trace after flushing its response.
	for deadline := time.Now().Add(5 * time.Second); srv.Tracer().Report().Sampled < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	body := httpGet(t, ts.URL+"/debug/requests")

	var rep TraceReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/debug/requests unparseable: %v\n%s", err, body)
	}
	if rep.SampleEvery != 1 {
		t.Errorf("sample_every = %d, want 1", rep.SampleEvery)
	}
	if rep.SlowOpNs != 1 {
		t.Errorf("slow_op_ns = %d, want 1", rep.SlowOpNs)
	}
	if rep.Requests < 2 || rep.Sampled < 2 {
		t.Fatalf("requests/sampled = %d/%d, want >= 2", rep.Requests, rep.Sampled)
	}
	if rep.Slow < 2 {
		t.Errorf("slow = %d, want >= 2 with a 1ns threshold", rep.Slow)
	}
	if len(rep.Recent) == 0 {
		t.Fatal("recent ring empty with TraceSample=1")
	}
	byOp := map[string]TraceEntry{}
	for _, e := range rep.Recent {
		byOp[e.Op] = e
	}
	ins, ok := byOp["insert"]
	if !ok {
		t.Fatalf("no insert entry in recent ring: %s", body)
	}
	if !ins.Sampled || ins.ID == 0 || ins.TotalNs <= 0 {
		t.Errorf("insert entry malformed: %+v", ins)
	}
	if ins.Keys != 1 || ins.KeyBytes != len("traced-key") {
		t.Errorf("insert keys/bytes = %d/%d, want 1/%d", ins.Keys, ins.KeyBytes, len("traced-key"))
	}
	if ins.FilterNs <= 0 || ins.WALNs <= 0 {
		t.Errorf("insert stage timings missing: filter=%d wal=%d", ins.FilterNs, ins.WALNs)
	}
	if ins.FsyncNs <= 0 { // testStoreOptions uses SyncAlways
		t.Errorf("insert fsync timing missing under SyncAlways: %+v", ins)
	}
	if con, ok := byOp["contains"]; ok {
		if con.WALNs != 0 {
			t.Errorf("contains must not touch the WAL: %+v", con)
		}
		if con.FilterNs <= 0 {
			t.Errorf("contains filter stage missing: %+v", con)
		}
	} else {
		t.Errorf("no contains entry in recent ring")
	}
	if len(rep.SlowRecent) == 0 {
		t.Error("slow ring empty with a 1ns threshold")
	}
}

// syncBuffer guards log output written by server goroutines while the
// test reads it for assertions.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlogRequestLifecycle captures the structured log of one request
// lifecycle (conn accepted → slow-request warning → conn closed) via a
// JSON handler and asserts the attributes are machine-readable.
func TestSlogRequestLifecycle(t *testing.T) {
	var buf syncBuffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, c := startTestServer(t, testStoreOptions(t.TempDir()), Config{
		TraceSample: 1,
		SlowOp:      time.Nanosecond, // everything is "slow": deterministic warning
		Log:         log,
	})
	if err := c.Insert([]byte("logged-key")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// The conn-closed line lands after the client socket drops; poll.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), "conn closed") {
		if time.Now().After(deadline) {
			t.Fatalf("no conn-closed log line:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	type line struct {
		Level     string `json:"level"`
		Msg       string `json:"msg"`
		Component string `json:"component"`
		Remote    string `json:"remote"`
		ID        uint64 `json:"id"`
		Op        string `json:"op"`
		WALNs     int64  `json:"wal_ns"`
		FilterNs  int64  `json:"filter_ns"`
		Keys      int    `json:"keys"`
		Failed    bool   `json:"failed"`
	}
	var accepted, slow, closed *line
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("non-JSON log line %q: %v", raw, err)
		}
		switch l.Msg {
		case "conn accepted":
			accepted = &line{}
			*accepted = l
		case "slow request":
			slow = &line{}
			*slow = l
		case "conn closed":
			closed = &line{}
			*closed = l
		}
	}
	if accepted == nil || closed == nil {
		t.Fatalf("missing conn lifecycle lines:\n%s", buf.String())
	}
	if accepted.Level != "DEBUG" || accepted.Component != "server" || accepted.Remote == "" {
		t.Errorf("conn accepted line malformed: %+v", accepted)
	}
	if slow == nil {
		t.Fatalf("no slow-request warning with a 1ns threshold:\n%s", buf.String())
	}
	if slow.Level != "WARN" || slow.Component != "server" {
		t.Errorf("slow request line level/component: %+v", slow)
	}
	if slow.Op != "insert" || slow.ID == 0 || slow.Keys != 1 || slow.Failed {
		t.Errorf("slow request attrs: %+v", slow)
	}
	if slow.WALNs <= 0 || slow.FilterNs <= 0 {
		t.Errorf("slow request stage timings (sampled request): %+v", slow)
	}
}

// TestDebugHandlerPprof asserts the gated debug mux serves pprof and
// the shared debug endpoints.
func TestDebugHandlerPprof(t *testing.T) {
	srv, _ := startTestServer(t, testStoreOptions(t.TempDir()), Config{})
	ts := httptest.NewServer(srv.DebugHandler())
	defer ts.Close()

	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/cmdline",
		"/debug/vars",
		"/debug/requests",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	// The operational sidecar must NOT expose pprof.
	op := httptest.NewServer(srv.HTTPHandler())
	defer op.Close()
	resp, err := http.Get(op.URL + "/debug/pprof/goroutine")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("operational sidecar serves pprof; it must be gated behind DebugHandler")
	}
}

// TestTracerDisabledIsCheap sanity-checks the off path: with sampling
// and the slow threshold both off, requests must not land in any ring.
func TestTracerDisabledIsCheap(t *testing.T) {
	srv, c := startTestServer(t, testStoreOptions(t.TempDir()), Config{})
	if err := c.InsertBatch(storeKeys("off", 50)); err != nil {
		t.Fatal(err)
	}
	rep := srv.Tracer().Report()
	if rep.Requests == 0 {
		t.Fatal("request IDs must still be assigned")
	}
	if rep.Sampled != 0 || rep.Slow != 0 || len(rep.Recent) != 0 || len(rep.SlowRecent) != 0 {
		t.Errorf("tracing off but rings populated: %+v", rep)
	}
}

// TestExpvarMatchesPromElasticRing extends the anti-drift check to the
// elastic-chain and partition-ring families: both expositions render
// from the same ServerSnapshot, so every number must agree, and the new
// families must keep the /metrics document format-valid.
func TestExpvarMatchesPromElasticRing(t *testing.T) {
	srv, c := startTestServer(t, testElasticStoreOptions(t.TempDir()), Config{})
	// Push past the seed generation so a grow event is on the books.
	if err := c.InsertBatch(storeKeys("elastic-drift", 1200)); err != nil {
		t.Fatal(err)
	}
	// Adopt a joint ring so the mpcbfd_ring_* family renders.
	err := c.RingSet(wire.Ring{Epoch: 9, Joint: true,
		Old: []string{"a:1", "b:1"}, New: []string{"a:1", "b:1", "c:1"}})
	if err != nil {
		t.Fatal(err)
	}
	// Import the node's own dump so imported-generation gauges are live.
	blob, err := c.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Import(blob); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()
	var doc struct {
		Mpcbfd struct {
			Server ServerSnapshot `json:"server"`
		} `json:"mpcbfd"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/debug/vars")), &doc); err != nil {
		t.Fatalf("/debug/vars unparseable: %v", err)
	}
	snap := doc.Mpcbfd.Server
	if snap.Elastic == nil || snap.Elastic.Grows == 0 {
		t.Fatalf("expvar elastic snapshot missing or never grew: %+v", snap.Elastic)
	}
	if snap.Ring == nil {
		t.Fatal("expvar ring snapshot missing after RING_SET")
	}
	if snap.Ring.JointSeconds <= 0 {
		t.Fatalf("joint ring adopted but JointSeconds = %g", snap.Ring.JointSeconds)
	}
	if snap.Elastic.Imports == 0 || snap.Elastic.ImportedKeys == 0 || snap.Elastic.ImportedBytes == 0 {
		t.Fatalf("import left no trace in the snapshot: %+v", snap.Elastic)
	}

	metrics := httpGet(t, ts.URL+"/metrics")
	pairs := [][2]string{
		{"mpcbfd_elastic_generations", fmt.Sprintf("%d", snap.Elastic.Generations)},
		{"mpcbfd_elastic_grows_total", fmt.Sprintf("%d", snap.Elastic.Grows)},
		{"mpcbfd_elastic_imports_total", fmt.Sprintf("%d", snap.Elastic.Imports)},
		{"mpcbfd_elastic_imported_keys", fmt.Sprintf("%d", snap.Elastic.ImportedKeys)},
		{"mpcbfd_elastic_imported_bytes", fmt.Sprintf("%d", snap.Elastic.ImportedBytes)},
		{"mpcbfd_elastic_target_fpr", fmt.Sprintf("%g", snap.Elastic.TargetFPR)},
		{"mpcbfd_ring_epoch", "9"},
		{"mpcbfd_ring_joint", "1"},
		{"mpcbfd_ring_old_nodes", "2"},
		{"mpcbfd_ring_new_nodes", "3"},
	}
	for i, g := range snap.Elastic.Gens {
		pairs = append(pairs, [2]string{
			fmt.Sprintf(`mpcbfd_elastic_generation_items{gen="%d"}`, i),
			fmt.Sprintf("%d", g.Items),
		})
	}
	for _, pair := range pairs {
		if want := pair[0] + " " + pair[1]; !strings.Contains(metrics, want) {
			t.Errorf("/metrics disagrees with /debug/vars: missing %q", want)
		}
	}
	p := parseProm(t, metrics)
	for _, fam := range []string{
		"mpcbfd_elastic_generations",
		"mpcbfd_elastic_grows_total",
		"mpcbfd_elastic_imports_total",
		"mpcbfd_elastic_imported_keys",
		"mpcbfd_elastic_imported_bytes",
		"mpcbfd_elastic_target_fpr",
		"mpcbfd_elastic_expected_fpr",
		"mpcbfd_elastic_generation_items",
		"mpcbfd_elastic_generation_fill_ratio",
		"mpcbfd_elastic_generation_fpr_budget",
		"mpcbfd_ring_epoch",
		"mpcbfd_ring_joint",
		"mpcbfd_ring_old_nodes",
		"mpcbfd_ring_new_nodes",
		"mpcbfd_ring_joint_seconds",
	} {
		if _, ok := p.typeOf[fam]; !ok {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
}
