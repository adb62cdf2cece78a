// Command perfbench is the repository's end-to-end benchmark. It boots
// real mpcbfd daemons, drives one workload against them from this one
// process, checks every answer it can check, and prints each metric by
// name with its unit. The last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
// With -trace 0 it prints the end-to-end metrics: median set-up time over
// several set-ups, the daemons' CPU time per key, peak daemon memory,
// throughput, exact latency percentiles and the error ratio. With -trace 1
// it runs the workload once more with 1 in N requests inside a TRACE
// envelope, scrapes the daemons' /debug/traces and /metrics, times the
// public functions of each layer on the workload's own geometry and key
// stream, and prints the per-layer ladder.
//
// Workload parameters live in workloads.json; the metric names printed on
// the last line are the ones BENCHMARK.json lists. Run it through run.sh,
// which builds both binaries from the checkout first.
//
// perfbench compare A B reads the result lines of two runs and prints how
// each metric moved, warning when the host fingerprints differ.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement as printed on the result lines.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured. The "result" line carries all
// of it; the last line carries only the contract subset.
type result struct {
	Workload    string            `json:"workload"`
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Provenance  *workload         `json:"provenance"`
	Correct     bool              `json:"correct"`
	Failures    []string          `json:"failures,omitempty"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Notes       []string          `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain())
}

func runMain() int {
	var (
		name        = flag.String("workload", "", "workload to run (see workloads.json)")
		seed        = flag.Uint64("seed", 1, "workload seed: every key, draw and schedule derives from it")
		seconds     = flag.Float64("seconds", 10, "length of the timed phase")
		trace       = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		daemonBin   = flag.String("daemon", "", "mpcbfd binary")
		workDir     = flag.String("work", "", "scratch directory for data dirs and logs")
		configPath  = flag.String("config", "", "workloads.json")
		metricsPath = flag.String("metrics", "", "BENCHMARK.json: the metric names of the last line")
		srcDir      = flag.String("src", "", "source tree to fingerprint")
		commit      = flag.String("commit", "unknown", "commit hash of the source tree")
	)
	flag.Parse()
	cfg, err := loadConfig(*configPath)
	if err != nil {
		return fatal(err)
	}
	w, ok := cfg.Workloads[*name]
	if !ok {
		return fatal(fmt.Errorf("unknown workload %q", *name))
	}
	contract, err := loadContract(*metricsPath)
	if err != nil {
		return fatal(err)
	}
	if *daemonBin == "" || *workDir == "" {
		return fatal(errors.New("-daemon and -work are required"))
	}
	runDir := filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(runDir)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	defer stopAllDaemons()

	e := &env{
		ctx:    ctx,
		name:   *name,
		w:      w,
		seed:   *seed,
		dur:    time.Duration(*seconds * float64(time.Second)),
		bin:    *daemonBin,
		dir:    runDir,
		traced: *trace == 1,
	}
	res := &result{
		Workload:    *name,
		Seed:        *seed,
		Seconds:     *seconds,
		Traced:      e.traced,
		Fingerprint: takeFingerprint(*srcDir, *commit, *workDir),
		Provenance:  w,
		Correct:     true,
		Metrics:     map[string]metric{},
	}
	e.res = res

	tot0, steal0 := cpuTicks()
	var runErr error
	switch *name {
	case "lookup":
		runErr = runLookup(e)
	case "ingest":
		runErr = runIngest(e)
	case "tenants":
		runErr = runTenants(e)
	default:
		runErr = fmt.Errorf("workload %q has no driver", *name)
	}
	if runErr != nil {
		return fatal(runErr)
	}
	if ctx.Err() != nil {
		return fatal(errors.New("interrupted"))
	}
	// CPU time the hypervisor gave to others during the run: a noisy
	// neighbour shows here before it shows as an unexplained slowdown.
	if tot1, steal1 := cpuTicks(); tot1 > tot0 {
		res.set("host.steal_pct", 100*(steal1-steal0)/(tot1-tot0), "%")
	}

	names := contract.endToEnd
	if e.traced {
		names = contract.perLayer
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok {
			return fatal(fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", n))
		}
		out[n] = m
	}
	printHuman(res)
	line, _ := json.Marshal(res)
	fmt.Printf("result %s\n", line)
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, out})
	fmt.Println(string(last))
	if !res.Correct {
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// printHuman prints every measured metric, one per line, sorted by name.
func printHuman(r *result) {
	fmt.Printf("workload %s seed %d seconds %g traced %v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fp, _ := json.Marshal(r.Fingerprint)
	fmt.Printf("fingerprint %s\n", fp)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	if r.Correct {
		fmt.Println("correctness: ok")
	} else {
		fmt.Printf("correctness: FAILED: %s\n", strings.Join(r.Failures, "; "))
	}
}

// contractNames are the metric names BENCHMARK.json asks the last line for.
type contractNames struct {
	endToEnd, perLayer []string
}

func loadContract(path string) (contractNames, error) {
	var c struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return contractNames{}, fmt.Errorf("read metric list: %w", err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return contractNames{}, fmt.Errorf("parse %s: %w", path, err)
	}
	var out contractNames
	for _, m := range c.EndToEnd {
		out.endToEnd = append(out.endToEnd, m.Name)
	}
	for _, m := range c.PerLayer {
		out.perLayer = append(out.perLayer, m.Name)
	}
	return out, nil
}

// median returns the median of vs (0 for none); vs is reordered.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
