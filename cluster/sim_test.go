package cluster_test

// Deterministic multi-seed fault simulation: a seeded chaos schedule
// (primary kill+restart, replica-link partition+heal, slow-fsync
// fault+repair) runs against live loadgen traffic on a primary/replica
// pair built from the shared e2e harness. Each seed is replayed twice
// and the two event logs must be byte-identical — the log renders only
// schedule-derived fields, so any wall-clock leak shows up as a diff.
// After every replay the run asserts zero acked-write loss and a
// byte-identical replica DUMP.
//
// `make sim-multi-seed` runs this across MPCBF_SIM_SEEDS (default one
// seed in a plain `go test`); MPCBF_SIM_DURATION scales the traffic
// window and MPCBF_SIM_ARTIFACTS collects per-seed event logs.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/e2e"
	"repro/internal/loadgen"
)

// dumpFrame is the response-frame cap of the convergence clients: a
// grown elastic chain's DUMP (~1.4 MB at five generations) outgrows the
// default 1 MiB frame until DUMP is chunked, as in ns_e2e.
const dumpFrame = 8 << 20

func simSeeds(t *testing.T) []uint64 {
	raw := os.Getenv("MPCBF_SIM_SEEDS")
	if raw == "" {
		return []uint64{1}
	}
	var seeds []uint64
	for _, f := range strings.Split(raw, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			t.Fatalf("MPCBF_SIM_SEEDS: %v", err)
		}
		seeds = append(seeds, n)
	}
	if len(seeds) == 0 {
		t.Fatal("MPCBF_SIM_SEEDS is set but holds no seeds")
	}
	return seeds
}

func simDuration(t *testing.T) time.Duration {
	raw := os.Getenv("MPCBF_SIM_DURATION")
	if raw == "" {
		return 2500 * time.Millisecond
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		t.Fatalf("MPCBF_SIM_DURATION: %v", err)
	}
	return d
}

func simGenConfig(dur time.Duration) chaos.GenConfig {
	return chaos.GenConfig{
		Duration:  dur,
		Kill:      []string{"primary"},
		Partition: []string{"replica-link"},
		SlowFsync: []string{"primary"},
	}
}

// simCluster maps schedule events onto a live primary/replica pair.
// Apply runs on the test goroutine (the chaos runner is driven there)
// so it may use harness helpers that Fatal on failure.
type simCluster struct {
	t     *testing.T
	proxy *chaos.Proxy // fronts the replica's -replicate-from link

	primary   *e2e.Daemon
	primaryUp bool
	// pendingFsync is the armed slow-fsync delay. The failpoint is
	// process state, so a kill clears it and a restart re-arms it; a
	// slow-fsync event landing while the primary is down is recorded
	// here and applied at the restart.
	pendingFsync time.Duration
}

func (s *simCluster) apply(e chaos.Event) error {
	switch e.Action {
	case chaos.ActionKill:
		s.primary.Kill()
		s.primaryUp = false
	case chaos.ActionRestart:
		s.primary = s.primary.Restart(s.t)
		e2e.DialRetry(s.t, s.primary.Addr).Close()
		s.primaryUp = true
		if s.pendingFsync > 0 {
			return s.slowFsync(s.pendingFsync)
		}
	case chaos.ActionPartition:
		s.proxy.SetDrop(true)
	case chaos.ActionHeal:
		s.proxy.SetDrop(false)
	case chaos.ActionSlowFsync:
		d, err := time.ParseDuration(e.Arg)
		if err != nil {
			return err
		}
		s.pendingFsync = d
		if s.primaryUp {
			return s.slowFsync(d)
		}
	case chaos.ActionFsyncOK:
		s.pendingFsync = 0
		if s.primaryUp {
			return s.slowFsync(0)
		}
	default:
		return fmt.Errorf("sim has no handler for action %q", e.Action)
	}
	return nil
}

// slowFsync posts the fsync-delay failpoint, retrying briefly: right
// after a restart the HTTP sidecar may still be binding.
func (s *simCluster) slowFsync(d time.Duration) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := chaos.SlowFsync(s.primary.HTTPAddr, d)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// simElasticArgs makes the sim pair elastic with a seed geometry small
// enough that the grow-mode loadgen ramp forces several growth events
// mid-schedule: ELASTIC_GROW barriers land in the replicated WAL while
// kills, partitions, and slow fsyncs are in flight.
var simElasticArgs = []string{"-elastic", "-mem", "262144", "-n", "800"}

// runSim executes one live replay of seed's schedule — fresh data
// dirs, fresh daemons, loadgen traffic throughout — verifies zero
// acked loss and replica convergence, and returns the event log.
// elastic runs the pair as elastic chains under a growing keyspace.
func runSim(t *testing.T, bin string, seed uint64, dur time.Duration, elastic bool) []byte {
	var extra []string
	if elastic {
		extra = simElasticArgs
	}
	sim := &simCluster{t: t}
	sim.primary = e2e.StartDaemon(t, e2e.DaemonConfig{Bin: bin, Dir: t.TempDir(), Chaos: true, Extra: extra})
	paddr := sim.primary.Addr
	e2e.DialRetry(t, paddr).Close()
	sim.primaryUp = true

	proxy, err := chaos.NewProxy(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	sim.proxy = proxy
	raddr := e2e.StartDaemon(t, e2e.DaemonConfig{
		Bin: bin, Dir: t.TempDir(), ReplicateFrom: proxy.Addr(),
		Extra: extra,
	}).Addr
	rc := e2e.DialRetry(t, raddr, client.WithMaxFrame(dumpFrame))
	defer rc.Close()

	schedule := chaos.Generate(seed, simGenConfig(dur))

	// Every nil-error insert is an acked write the cluster must still
	// serve once all faults heal. ErrMaybeApplied outcomes are uncertain
	// and excluded unless another attempt acked the same key. The mix is
	// monotone (no deletes) so presence is the exact loss check.
	var mu sync.Mutex
	acked := map[string]struct{}{}
	lgCfg := loadgen.Config{
		Addrs:       []string{paddr},
		Concurrency: 4,
		Duration:    dur + 500*time.Millisecond, // traffic outlives the last repair
		Mix:         loadgen.Mix{Insert: 50, Contains: 50},
		Keyspace:    dataset.KeyspaceConfig{N: 4000, ZipfS: 1.05, Prefix: fmt.Sprintf("sim%d", seed)},
		Seed:        seed,
		Grow:        elastic, // ramp the keyspace so the chain grows mid-schedule
		GrowSteps:   2,
		Reconnect:   true,
		OnMutation: func(op loadgen.Op, key []byte, err error) {
			if err == nil && op == loadgen.OpInsert {
				mu.Lock()
				acked[string(key)] = struct{}{}
				mu.Unlock()
			}
		},
	}

	type lgOut struct {
		res *loadgen.Result
		err error
	}
	lgCh := make(chan lgOut, 1)
	go func() {
		res, err := loadgen.Run(context.Background(), lgCfg)
		lgCh <- lgOut{res, err}
	}()
	runner := &chaos.Runner{Apply: sim.apply}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := runner.Run(ctx, schedule); err != nil {
		t.Fatalf("chaos runner: %v\nprimary output:\n%s", err, sim.primary)
	}
	lg := <-lgCh
	if lg.err != nil {
		t.Fatalf("loadgen: %v", lg.err)
	}

	// The schedule repairs every fault it injects, but clear both fault
	// paths anyway so convergence below cannot run degraded.
	sim.slowFsync(0)
	proxy.SetDrop(false)

	mu.Lock()
	keys := make([][]byte, 0, len(acked))
	for k := range acked {
		keys = append(keys, []byte(k))
	}
	mu.Unlock()
	if lg.res.TotalOps == 0 || len(keys) == 0 {
		t.Fatalf("no traffic survived the schedule: %+v", lg.res)
	}
	t.Logf("seed %d: %d ops (%d errors, %d maybe-applied), %d distinct acked keys",
		seed, lg.res.TotalOps, lg.res.Errors, lg.res.MaybeApplied, len(keys))

	pc := e2e.DialRetry(t, paddr, client.WithMaxFrame(dumpFrame))
	defer pc.Close()

	if elastic {
		// Enough distinct keys saturate the 800-item seed generation, so
		// the chain must have grown — and those growth events replicated.
		st, err := pc.ElasticStats()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: elastic chain %d generations, %d grows", seed, len(st.Gens), st.Grows)
		if len(keys) > 1200 && st.Grows == 0 {
			t.Fatalf("%d distinct keys but the chain never grew: %+v", len(keys), st)
		}
	}

	// Convergence: the replica must mirror the primary byte for byte,
	// even across the primary kill (a replica that outlived unsynced
	// records re-bootstraps from a snapshot).
	var pdump, rdump []byte
	deadline := time.Now().Add(30 * time.Second)
	for {
		var perr, rerr error
		pdump, perr = pc.Dump()
		rdump, rerr = rc.Dump()
		if perr == nil && rerr == nil && bytes.Equal(pdump, rdump) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: %d vs %d dump bytes (errs %v / %v)",
				len(rdump), len(pdump), rerr, perr)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Zero acked loss, per key, on both nodes.
	for _, node := range []struct {
		name string
		c    *client.Client
	}{{"primary", pc}, {"replica", rc}} {
		for off := 0; off < len(keys); off += 512 {
			end := min(off+512, len(keys))
			flags, err := node.c.ContainsBatch(keys[off:end])
			if err != nil {
				t.Fatal(err)
			}
			for i, ok := range flags {
				if !ok {
					t.Fatalf("%s lost acked key %q", node.name, keys[off+i])
				}
			}
		}
	}
	return runner.EventLog()
}

// TestSimMultiSeed replays each seed's fault schedule twice under live
// load and diffs the event logs: determinism is asserted on real runs,
// not just on the generator.
func TestSimMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("fault simulation runs seconds of wall clock per seed")
	}
	bin := e2e.BuildDaemon(t)
	dur := simDuration(t)
	artifacts := os.Getenv("MPCBF_SIM_ARTIFACTS")
	replay := func(t *testing.T, seed uint64, elastic bool, name string) {
		want := chaos.Generate(seed, simGenConfig(dur)).Format()
		log1 := runSim(t, bin, seed, dur, elastic)
		log2 := runSim(t, bin, seed, dur, elastic)
		if !bytes.Equal(log1, log2) {
			t.Fatalf("replays diverged:\n--- first\n%s--- second\n%s", log1, log2)
		}
		if !bytes.Equal(log1, want) {
			t.Fatalf("event log differs from the schedule:\n--- log\n%s--- schedule\n%s", log1, want)
		}
		if artifacts != "" {
			if err := os.MkdirAll(artifacts, 0o755); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(artifacts, fmt.Sprintf("sim_%s.events.log", name))
			if err := os.WriteFile(path, log1, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	seeds := simSeeds(t)
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			replay(t, seed, false, fmt.Sprintf("seed%d", seed))
		})
	}
	// One seed rides the schedule as an elastic pair under a growing
	// keyspace: ELASTIC_GROW barriers replicate through the same faults.
	t.Run("elastic-growth", func(t *testing.T) {
		replay(t, seeds[0], true, fmt.Sprintf("elastic_seed%d", seeds[0]))
	})
}
