// Command mpcbf-loadgen generates reproducible load against one mpcbfd
// node or a routed cluster and reports per-op latency percentiles.
//
//	mpcbf-loadgen -addrs 127.0.0.1:4650 -duration 10s \
//	  -mix insert=40,contains=55,delete=4,insert_ttl=1 -zipf 1.1
//
// Loop models: closed (default; -c workers, each issues its next op
// when the previous returns) and open (-mode open -rate N; send times
// are fixed on a schedule and latency is measured from the scheduled
// send, so server stalls surface as queueing delay). Request shapes:
// single-key (default), -batch N, or -pipeline D. Multiple -addrs
// entries ("primary[/replica...]", comma-separated) run the rendezvous
// cluster router; -ns fans ops across namespaces, on one node or
// across the cluster.
//
// The run manifest (seed, mix, topology, duration) is embedded in the
// JSON result (-json), and -bench merges the result into a named entry
// of a bench file such as BENCH_cluster.json. Same seed, same workload:
// every worker's op and key stream is a pure function of (seed, worker
// id). -trace-sample N wraps 1 in N ops in a TRACE envelope and prints
// the slowest sampled trace ids, ready for mpcbf-trace.
//
// -grow ramps the keyspace for elastic-capacity experiments: ops draw
// from a prefix of the keyspace that starts at keys>>grow-steps and
// doubles at each of grow-steps evenly spaced phase boundaries, ending
// at the full -keys. The phase schedule is recorded in the manifest's
// grow_curve so results can be aligned against the server's elastic
// generation metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/dataset"
	"repro/internal/loadgen"
	"repro/server/wire"
)

func main() {
	var (
		addrs     = flag.String("addrs", "127.0.0.1:4650", "comma-separated targets, each primary[/replica...]")
		mode      = flag.String("mode", "closed", "loop model: closed or open")
		rate      = flag.Float64("rate", 0, "aggregate target ops/sec (open loop)")
		conc      = flag.Int("c", 8, "concurrent workers (connections)")
		duration  = flag.Duration("duration", 5*time.Second, "run length")
		mixFlag   = flag.String("mix", "insert=45,contains=45,delete=5,insert_ttl=5", "op mix as name=weight terms")
		batch     = flag.Int("batch", 0, "issue ops as batches of this many keys")
		pipeline  = flag.Int("pipeline", 0, "pipeline depth (single node, single-key only)")
		keys      = flag.Int("keys", 100_000, "keyspace size")
		zipf      = flag.Float64("zipf", 0, "Zipf skew exponent s (0 = uniform)")
		prefix    = flag.String("prefix", "lg", "key prefix")
		seed      = flag.Uint64("seed", 1, "workload seed")
		grow      = flag.Bool("grow", false, "grow mode: keyspace prefix doubles each phase up to -keys")
		growSteps = flag.Int("grow-steps", 3, "number of keyspace doublings over the run (-grow)")
		ttl       = flag.Duration("ttl", time.Minute, "TTL for insert_ttl ops")
		nsFlag    = flag.String("ns", "", "comma-separated namespaces to fan out across")
		nsCreate  = flag.Bool("ns-create", false, "create the -ns namespaces before the run")
		nsBits    = flag.Uint64("ns-mem", 1<<21, "memory bits per created namespace")
		nsItems   = flag.Uint64("ns-items", 10_000, "expected items per created namespace")
		recon     = flag.Bool("reconnect", false, "redial transparently on connection loss")
		traceN    = flag.Int("trace-sample", 0, "trace 1 in N ops per worker; slowest trace ids land in the summary (0 = off)")
		jsonOut   = flag.String("json", "", "write the JSON result here ('-' = stdout)")
		bench     = flag.String("bench", "", "merge the result into this bench JSON file")
		benchKey  = flag.String("bench-name", "", "entry name inside -bench (required with -bench)")
		quiet     = flag.Bool("quiet", false, "suppress the human-readable summary")
	)
	flag.Parse()

	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fatal(err)
	}
	if *bench != "" && *benchKey == "" {
		fatal(fmt.Errorf("-bench requires -bench-name"))
	}
	cfg := loadgen.Config{
		Addrs:         splitList(*addrs),
		Namespaces:    splitList(*nsFlag),
		OpenLoop:      *mode == "open",
		Rate:          *rate,
		Concurrency:   *conc,
		Duration:      *duration,
		Mix:           mix,
		Batch:         *batch,
		PipelineDepth: *pipeline,
		Keyspace:      dataset.KeyspaceConfig{N: *keys, ZipfS: *zipf, Prefix: *prefix},
		Seed:          *seed,
		Grow:          *grow,
		GrowSteps:     *growSteps,
		TTL:           *ttl,
		Reconnect:     *recon,
		TraceSample:   *traceN,
	}
	switch *mode {
	case "closed", "open":
	default:
		fatal(fmt.Errorf("unknown -mode %q (closed or open)", *mode))
	}

	if *nsCreate && len(cfg.Namespaces) > 0 {
		if err := createNamespaces(cfg.Addrs, cfg.Namespaces, *nsBits, *nsItems); err != nil {
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		res.WriteHuman(os.Stdout)
	}
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		raw = append(raw, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(raw)
		} else if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
			fatal(err)
		}
	}
	if *bench != "" {
		if err := res.MergeBenchFile(*bench, *benchKey); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Printf("merged run %q into %s\n", *benchKey, *bench)
		}
	}
}

// createNamespaces ensures each named namespace exists on every target
// primary, since a cluster spreads each namespace over all of them
// (CREATE_NS of an existing namespace with the same geometry is
// rejected; a "exists" error is tolerated so reruns work).
func createNamespaces(addrs, names []string, bits, items uint64) error {
	for _, addr := range addrs {
		primary := strings.Split(addr, "/")[0]
		c, err := client.Dial(primary, client.WithTimeout(10*time.Second))
		if err != nil {
			return err
		}
		for _, name := range names {
			err := c.CreateNamespace(name, wire.NsConfig{MemoryBits: bits, ExpectedItems: items})
			if err != nil && !strings.Contains(err.Error(), "exists") {
				c.Close()
				return fmt.Errorf("create namespace %s on %s: %w", name, primary, err)
			}
		}
		c.Close()
	}
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpcbf-loadgen:", err)
	os.Exit(1)
}
