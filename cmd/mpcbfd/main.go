// Command mpcbfd serves a durable sharded MPCBF over TCP: a
// length-prefixed binary protocol (see repro/server/wire) on -addr, and
// an HTTP sidecar with /healthz, /readyz, /metrics, /debug/vars, and
// /debug/requests on -http.
//
// State survives restarts: every acknowledged mutation is written to a
// CRC-framed write-ahead log (fsync policy -fsync), and the filter is
// periodically snapshotted (-snapshot-interval); startup loads the
// newest valid snapshot and replays the WAL tail. SIGTERM/SIGINT drain
// connections, take a final snapshot, and exit cleanly.
//
// With -window the daemon serves a time-decaying sliding-window filter
// (see repro/window): inserts expire after the configured span, aged
// out in -generations discrete steps. INSERT_TTL caps individual keys
// at shorter lifetimes; WINDOW_STATS reports the generation ring.
//
// Every daemon also multiplexes independent named filters (namespaces):
// CREATE_NS/DROP_NS/LIST_NS/NS_STATS administer them, and any data
// operation wrapped in the NAMESPACED envelope targets one by name.
// -ns-mem and -ns-n set the default per-namespace geometry, -ns-quota
// bounds the total resident namespace memory (least-recently-used
// namespaces are evicted to per-namespace snapshot files and recovered
// transparently on next touch), and -ns-idle evicts namespaces untouched
// for the given duration.
//
// With -replicate-from the daemon runs as a read replica: it mirrors
// the named primary's WAL over the binary protocol, serves reads
// locally, and answers mutations with a READONLY redirect to the
// primary. -read-only alone serves an existing data directory without
// accepting writes.
//
// Observability:
//
//   - Logs are structured (log/slog): -log-format picks text or json,
//     -log-level sets the floor.
//   - -trace-sample N records per-stage timings (decode, filter, WAL,
//     fsync, encode) for 1 in N requests; -slow-op D additionally logs
//     and records any request slower than D. Both feed the JSON
//     document at /debug/requests.
//   - -debug-addr starts a second HTTP listener with net/http/pprof
//     (plus /debug/vars and /debug/requests), kept off the operational
//     sidecar so profiling exposure is an explicit opt-in.
//
// With -chaos the HTTP sidecar additionally mounts /chaos, the WAL
// failpoint control endpoint (fsync_delay=DURATION injects latency
// into every WAL fsync; disk_full=true|false makes WAL writes fail with
// ENOSPC until cleared or restarted). It exists for the deterministic
// fault-schedule harness (internal/chaos, `make sim-multi-seed`) and
// must never be enabled on an operational daemon.
//
// Usage:
//
//	mpcbfd -addr :7070 -http :7071 -dir /var/lib/mpcbfd \
//	       -mem 67108864 -n 1000000 -shards 16 -fsync always
//
//	mpcbfd -addr :7170 -dir /var/lib/mpcbfd-replica \
//	       -mem 67108864 -n 1000000 -shards 16 \
//	       -replicate-from primary-host:7070
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	mpcbf "repro"
	"repro/cluster"
	"repro/server"
	"repro/server/ns"
)

func main() {
	var (
		addr     = flag.String("addr", ":7070", "TCP listen address for the binary protocol")
		httpAddr = flag.String("http", ":7071", "HTTP sidecar address ('' disables)")
		dir      = flag.String("dir", "mpcbfd-data", "data directory (WAL + snapshots)")

		mem    = flag.Int("mem", 1<<26, "filter memory budget in bits (fresh store only)")
		items  = flag.Int("n", 1_000_000, "expected distinct items (fresh store only)")
		shards = flag.Int("shards", 16, "shard count (fresh store only)")
		k      = flag.Int("k", 3, "hash functions (fresh store only)")
		g      = flag.Int("g", 1, "memory accesses per key (fresh store only)")
		seed   = flag.Uint("seed", 1, "hash seed (fresh store only)")

		windowSpan  = flag.Duration("window", 0, "sliding-window span; 0 serves a plain counting filter")
		generations = flag.Int("generations", 4, "generations in the sliding window (with -window)")

		elasticMode = flag.Bool("elastic", false, "serve an elastic filter chain that grows new generations as the head saturates (mutually exclusive with -window)")
		elasticFPR  = flag.Float64("elastic-fpr", 0, "chain-wide false positive bound with -elastic (0: derived from the seed geometry)")

		nsQuota = flag.Int64("ns-quota", 0, "memory budget in bytes across all named namespaces (0: unlimited); least-recently-used namespaces are evicted to disk under pressure")
		nsIdle  = flag.Duration("ns-idle", 0, "evict namespaces untouched for this long (0: never)")
		nsMem   = flag.Int("ns-mem", 0, "default per-namespace memory budget in bits (0: built-in default)")
		nsItems = flag.Int("ns-n", 0, "default per-namespace expected distinct items (0: built-in default)")

		fsync        = flag.String("fsync", "always", "WAL fsync policy: always|interval|never")
		fsyncEvery   = flag.Duration("fsync-interval", 100*time.Millisecond, "fsync period under -fsync interval")
		snapEvery    = flag.Duration("snapshot-interval", 5*time.Minute, "background snapshot period (0 disables)")
		maxConns     = flag.Int("max-conns", 1024, "max simultaneous connections")
		maxFrame     = flag.Int("max-frame", 1<<20, "max request frame bytes")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "close idle connections after")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "shutdown drain grace period")

		replicateFrom = flag.String("replicate-from", "", "primary address to mirror; implies -read-only and disables snapshots")
		readOnly      = flag.Bool("read-only", false, "reject mutations with a READONLY redirect")

		chaos = flag.Bool("chaos", false, "expose the WAL failpoint control endpoint (/chaos) on the HTTP sidecar; fault-injection harness use only")

		logFormat   = flag.String("log-format", "text", "log output format: text|json")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
		traceSample = flag.Int("trace-sample", 0, "trace per-stage timings for 1 in N requests (0 disables)")
		slowOp      = flag.Duration("slow-op", 0, "log and record requests slower than this (0 disables)")
		debugAddr   = flag.String("debug-addr", "", "debug HTTP address with /debug/pprof ('' disables)")
	)
	flag.Parse()

	log, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(log)

	policy, err := server.ParseSyncPolicy(*fsync)
	if err != nil {
		fatal(err)
	}
	replica := *replicateFrom != ""
	if replica {
		// A replica's WAL mirrors the primary; local snapshots would
		// rotate it and desynchronize the mirror.
		*snapEvery = 0
	}

	store, err := server.OpenStore(server.StoreOptions{
		Dir: *dir,
		Filter: mpcbf.Options{
			MemoryBits:     *mem,
			ExpectedItems:  *items,
			HashFunctions:  *k,
			MemoryAccesses: *g,
			Seed:           uint32(*seed),
		},
		Shards:      *shards,
		Window:      *windowSpan,
		Generations: *generations,
		Elastic:     *elasticMode,
		ElasticFPR:  *elasticFPR,
		NsDefaults: ns.Config{
			MemoryBits:    *nsMem,
			ExpectedItems: *nsItems,
		},
		NsQuota:       *nsQuota,
		NsIdleAfter:   *nsIdle,
		Sync:          policy,
		SyncEvery:     *fsyncEvery,
		SnapshotEvery: *snapEvery,
		Replica:       replica,
		Log:           log,
	})
	if err != nil {
		fatal(err)
	}
	st := store.Stats()
	if w := store.Window(); w != nil {
		log.Info("store open", "dir", *dir, "elements", store.Len(), "replayed", st.ReplayedRecords,
			"window", w.Span(), "generations", w.Generations(), "rotate_every", w.RotateEvery())
	} else if el := store.Elastic(); el != nil {
		log.Info("store open", "dir", *dir, "elements", store.Len(), "replayed", st.ReplayedRecords,
			"elastic_generations", el.Generations(), "target_fpr", el.TargetFPR())
	} else {
		log.Info("store open", "dir", *dir, "elements", store.Len(), "replayed", st.ReplayedRecords)
	}

	cfg := server.Config{
		Addr:          *addr,
		MaxConns:      *maxConns,
		MaxFrameBytes: *maxFrame,
		IdleTimeout:   *idleTimeout,
		ReadOnly:      *readOnly || replica,
		PrimaryAddr:   *replicateFrom,
		TraceSample:   *traceSample,
		SlowOp:        *slowOp,
		Chaos:         *chaos,
		Log:           log,
	}
	if *chaos {
		log.Warn("chaos failpoint endpoint enabled", "path", "/chaos")
	}

	var rep *cluster.Replica
	repCtx, repCancel := context.WithCancel(context.Background())
	repDone := make(chan struct{})
	close(repDone)
	if replica {
		rep, err = cluster.NewReplica(cluster.ReplicaConfig{
			PrimaryAddr: *replicateFrom,
			Store:       store,
			Log:         log,
		})
		if err != nil {
			fatal(err)
		}
		cfg.Extra = rep
		// A replica that has never applied a stream frame serves
		// arbitrarily stale state; hold /readyz at 503 until then.
		cfg.Ready = rep.Ready
		repDone = make(chan struct{})
		go func() { defer close(repDone); rep.Run(repCtx) }()
		log.Info("replicating", "primary", *replicateFrom)
	}
	defer repCancel()

	srv := server.New(store, cfg, nil)

	// Every listener binds before anything is served, so a taken port
	// stops the daemon instead of leaving it up without /readyz, and each
	// log line carries the bound address (the real port of a ":0" flag).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpLn, debugLn := listenHTTP(*httpAddr), listenHTTP(*debugAddr)
	httpSrv := serveHTTP(httpLn, srv.HTTPHandler(), log, "http sidecar listening")
	debugSrv := serveHTTP(debugLn, srv.DebugHandler(), log, "debug listener with pprof")

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Info("serving", "addr", ln.Addr().String(), "fsync", policy.String(), "shards", *shards,
		"trace_sample", *traceSample, "slow_op", *slowOp)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Info("draining", "signal", s.String())
	case err := <-serveErr:
		if err != nil {
			log.Error("serve failed", "error", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Error("shutdown incomplete", "error", err)
	}
	if httpSrv != nil {
		httpSrv.Shutdown(ctx)
	}
	if debugSrv != nil {
		debugSrv.Shutdown(ctx)
	}
	// Stop consuming the replication stream before closing the store it
	// applies into.
	repCancel()
	<-repDone
	if err := store.Close(); err != nil {
		fatal(fmt.Errorf("final snapshot: %w", err))
	}
	if replica {
		log.Info("clean shutdown (mirror position durable)")
	} else {
		log.Info("clean shutdown (final snapshot written)")
	}
}

// listenHTTP binds an HTTP listener's addr, exiting the process when the
// bind fails; it returns nil for an empty addr, which disables the
// listener.
func listenHTTP(addr string) net.Listener {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	return ln
}

// serveHTTP serves h on ln and logs msg with the bound address; it
// returns nil, serving nothing, for a nil ln.
func serveHTTP(ln net.Listener, h http.Handler, log *slog.Logger, msg string) *http.Server {
	if ln == nil {
		return nil
	}
	hs := &http.Server{Handler: h}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Error("http listener failed", "addr", ln.Addr().String(), "error", err)
		}
	}()
	log.Info(msg, "addr", ln.Addr().String())
	return hs
}

// buildLogger assembles the process logger from the -log-format and
// -log-level flags. Logs go to stdout: the daemon's only stdout output
// is operational, and keeping one stream preserves ordering.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stdout, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stdout, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text|json)", format)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpcbfd:", err)
	os.Exit(1)
}
