package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	mpcbf "repro"
	"repro/cluster"
	"repro/internal/dataset"
	"repro/server"
	"repro/server/wire"
)

// startServer runs an in-process mpcbfd server (SyncNever: these tests
// measure the generator, not the WAL; windowed so insert_ttl is legal)
// and returns its address.
func startServer(t *testing.T) string {
	t.Helper()
	store, err := server.OpenStore(server.StoreOptions{
		Dir:         t.TempDir(),
		Filter:      mpcbf.Options{MemoryBits: 1 << 20, ExpectedItems: 10_000},
		Shards:      2,
		Sync:        server.SyncNever,
		Window:      time.Minute,
		Generations: 4,
		Log:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv := server.New(store, server.Config{}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return ln.Addr().String()
}

func testConfig(addr string) Config {
	return Config{
		Addrs:       []string{addr},
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
		Mix:         Mix{Insert: 40, Delete: 5, Contains: 50, InsertTTL: 5},
		Keyspace:    dataset.KeyspaceConfig{N: 1000},
		Seed:        7,
		TTL:         time.Minute,
	}
}

func TestRunClosedLoop(t *testing.T) {
	addr := startServer(t)
	res, err := Run(context.Background(), testConfig(addr))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 || res.Throughput <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.Errors != 0 || res.MaybeApplied != 0 {
		t.Fatalf("errors against a healthy server: %+v", res)
	}
	for _, op := range []string{"insert", "delete", "contains", "insert_ttl"} {
		st, ok := res.Ops[op]
		if !ok || st.Count == 0 {
			t.Fatalf("op %s missing from result: %+v", op, res.Ops)
		}
		if st.P50Us <= 0 || st.P99Us < st.P50Us {
			t.Fatalf("op %s has nonsense percentiles: %+v", op, st)
		}
	}
	if res.Manifest.Mode != "closed" || res.Manifest.Seed != 7 {
		t.Fatalf("manifest = %+v", res.Manifest)
	}
	// The mix must steer the draw: contains ~10x delete at these weights.
	if res.Ops["contains"].Count < 3*res.Ops["delete"].Count {
		t.Fatalf("mix not honored: contains=%d delete=%d",
			res.Ops["contains"].Count, res.Ops["delete"].Count)
	}
}

func TestRunOpenLoopRate(t *testing.T) {
	addr := startServer(t)
	cfg := testConfig(addr)
	cfg.OpenLoop = true
	cfg.Rate = 400
	cfg.Duration = 500 * time.Millisecond
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Rate * cfg.Duration.Seconds()
	if f := float64(res.TotalOps); f < want*0.5 || f > want*1.5 {
		t.Fatalf("open loop sent %d ops, want ~%.0f", res.TotalOps, want)
	}
	if res.Manifest.Mode != "open" || res.Manifest.Rate != 400 {
		t.Fatalf("manifest = %+v", res.Manifest)
	}
}

func TestRunBatch(t *testing.T) {
	addr := startServer(t)
	cfg := testConfig(addr)
	cfg.Batch = 8
	var mu sync.Mutex
	acked := 0
	cfg.OnMutation = func(op Op, key []byte, err error) {
		if err != nil {
			t.Errorf("mutation error: %v", err)
			return
		}
		if !strings.HasPrefix(string(key), "k") {
			t.Errorf("unexpected key %q", key)
		}
		mu.Lock()
		acked++
		mu.Unlock()
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("batch errors: %+v", res)
	}
	if acked == 0 {
		t.Fatal("OnMutation never saw an acked batch key")
	}
	if res.Manifest.Batch != 8 {
		t.Fatalf("manifest batch = %d", res.Manifest.Batch)
	}
}

func TestRunPipelined(t *testing.T) {
	addr := startServer(t)
	cfg := testConfig(addr)
	cfg.PipelineDepth = 16
	cfg.Concurrency = 2
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 || res.Errors != 0 {
		t.Fatalf("pipelined run: %+v", res)
	}
	if res.Manifest.Mode != "pipelined" {
		t.Fatalf("manifest mode = %s", res.Manifest.Mode)
	}
}

// TestRunNamespaces fans a run out over three windowed namespaces on
// one node, and across a two-node cluster, where the namespaced keys
// route on (namespace, key) over both primaries.
func TestRunNamespaces(t *testing.T) {
	names := []string{"lg-a", "lg-b", "lg-c"}
	for _, nodes := range []int{1, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			var addrs []string
			var topo []cluster.Node
			for i := 0; i < nodes; i++ {
				addrs = append(addrs, startServer(t))
				topo = append(topo, cluster.Node{Primary: addrs[i]})
			}
			admin, err := cluster.NewClient(cluster.ClientConfig{Nodes: topo, Timeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer admin.Close()
			for _, name := range names {
				nsCfg := wire.NsConfig{MemoryBits: 1 << 18, ExpectedItems: 2000,
					WindowNanos: uint64(time.Minute), Generations: 4}
				if err := admin.CreateNamespace(name, nsCfg); err != nil {
					t.Fatal(err)
				}
			}

			cfg := testConfig(addrs[0])
			cfg.Addrs = addrs
			cfg.Namespaces = names
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalOps == 0 || res.Errors != 0 {
				t.Fatalf("namespace run: %+v", res)
			}
			// The fan-out must actually have touched each tenant.
			for _, name := range names {
				n, err := admin.Namespace(name).Len()
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					t.Fatalf("namespace %s untouched by the run", name)
				}
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                     // no addrs
		{Addrs: []string{"x"}, OpenLoop: true}, // open loop without rate
		{Addrs: []string{"a", "b"}, PipelineDepth: 4, Mix: Mix{Insert: 1}}, // pipeline + cluster
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if _, err := Run(context.Background(), Config{Addrs: []string{"127.0.0.1:1"}, Mix: Mix{}}); err == nil {
		t.Fatal("zero mix accepted")
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("insert=40,contains=55,delete=4,insert_ttl=1")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Insert: 40, Delete: 4, Contains: 55, InsertTTL: 1}) {
		t.Fatalf("parsed %+v", m)
	}
	for _, bad := range []string{"insert", "warp=1", "insert=-2", "insert=x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestMergeBenchFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_cluster.json")
	r1 := &Result{Manifest: Manifest{Seed: 1, Mode: "closed"}, TotalOps: 10}
	r2 := &Result{Manifest: Manifest{Seed: 2, Mode: "open"}, TotalOps: 20}
	if err := r1.MergeBenchFile(path, "first"); err != nil {
		t.Fatal(err)
	}
	if err := r2.MergeBenchFile(path, "second"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs map[string]*Result `json:"runs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 2 || doc.Runs["first"].TotalOps != 10 || doc.Runs["second"].TotalOps != 20 {
		t.Fatalf("merged doc: %+v", doc.Runs)
	}
	// Overwrite preserves the other entry.
	r3 := &Result{Manifest: Manifest{Seed: 3}, TotalOps: 30}
	if err := r3.MergeBenchFile(path, "first"); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(path)
	doc.Runs = nil
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Runs["first"].TotalOps != 30 || doc.Runs["second"].TotalOps != 20 {
		t.Fatalf("overwrite broke entries: %+v", doc.Runs)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

func TestGrowLimitRamp(t *testing.T) {
	cfg := Config{
		Grow:      true,
		GrowSteps: 2,
		Duration:  900 * time.Millisecond,
		Keyspace:  dataset.KeyspaceConfig{N: 800},
	}
	ks, err := dataset.NewKeyspace(cfg.Keyspace)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1000, 0)
	w := &worker{cfg: &cfg, ks: ks, start: start}
	// Three phases over 900ms: [0,300)ms -> 200 keys, [300,600)ms -> 400,
	// [600,...] -> 800; past the end clamps at the full keyspace.
	cases := []struct {
		at   time.Duration
		want int
	}{
		{0, 200}, {299 * time.Millisecond, 200},
		{300 * time.Millisecond, 400}, {599 * time.Millisecond, 400},
		{600 * time.Millisecond, 800}, {2 * time.Second, 800},
	}
	for _, tc := range cases {
		if got := w.growLimit(start.Add(tc.at)); got != tc.want {
			t.Errorf("growLimit(+%v) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

func TestRunGrowManifest(t *testing.T) {
	addr := startServer(t)
	cfg := testConfig(addr)
	cfg.Grow = true
	cfg.GrowSteps = 2
	cfg.Keyspace.N = 800
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 || res.Errors != 0 {
		t.Fatalf("grow run unhealthy: %+v", res)
	}
	want := []GrowPhase{
		{At: "0s", Keys: 200},
		{At: "100ms", Keys: 400},
		{At: "200ms", Keys: 800},
	}
	if len(res.Manifest.GrowCurve) != len(want) {
		t.Fatalf("grow curve = %+v, want %+v", res.Manifest.GrowCurve, want)
	}
	for i, w := range want {
		if res.Manifest.GrowCurve[i] != w {
			t.Fatalf("grow curve[%d] = %+v, want %+v", i, res.Manifest.GrowCurve[i], w)
		}
	}
}

func TestGrowValidation(t *testing.T) {
	cfg := testConfig("127.0.0.1:1")
	cfg.Grow = true
	cfg.GrowSteps = 20 // 1000 >> 20 == 0: no keys in the first phase
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("want error for keyspace smaller than the grow ramp")
	}
}
