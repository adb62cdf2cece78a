package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
)

// config is the part of workloads.json the driver reads. The file also
// records the host the sizes refer to and the layer -> end-to-end
// prediction table.
type config struct {
	Workloads map[string]*workload `json:"workloads"`
}

// workload is one entry of workloads.json. Fields a workload does not
// use stay zero.
type workload struct {
	Why         string             `json:"why"`
	Loop        string             `json:"loop"`
	Daemons     int                `json:"daemons"`
	Connections int                `json:"connections"`
	DaemonFlags []string           `json:"daemon_flags"`
	Geometry    geometry           `json:"geometry"`
	Size        map[string]float64 `json:"size"`
	Preload     int                `json:"preload"`
	Batch       int                `json:"batch,omitempty"`
	Depth       int                `json:"pipeline_depth,omitempty"`
	Mix         map[string]float64 `json:"mix"`
	FPRProbes   int                `json:"fpr_probes,omitempty"`
	Rate        float64            `json:"rate_per_s,omitempty"`
	Namespaces  int                `json:"namespaces,omitempty"`
	ZipfS       float64            `json:"zipf_s,omitempty"`
	RungPop     int                `json:"rung_population,omitempty"`
	TraceEvery  int                `json:"trace_every"`
}

// geometry is the filter shape the in-process rungs rebuild: the
// daemon's default filter for lookup and ingest, one namespace for
// tenants.
type geometry struct {
	MemoryBits    int `json:"memory_bits"`
	ExpectedItems int `json:"expected_items"`
	Shards        int `json:"shards"`
}

func loadConfig(path string) (*config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read workloads: %w", err)
	}
	var c config
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &c, nil
}

// env is one run's shared state.
type env struct {
	ctx    context.Context
	name   string
	w      *workload
	seed   uint64
	dur    time.Duration
	bin    string
	dir    string
	traced bool
	res    *result
	dirs   int
}

// newDir returns a fresh directory under the run directory.
func (e *env) newDir(prefix string) string {
	e.dirs++
	return filepath.Join(e.dir, fmt.Sprintf("%s-%d", prefix, e.dirs))
}

// keyspace returns the run's key generator. Every key the daemons see
// is AppendKey(rank) of this keyspace; workloads carve disjoint rank
// ranges out of it for members, absent probes and fresh inserts.
func (e *env) keyspace() *dataset.Keyspace {
	ks, err := dataset.NewKeyspace(dataset.KeyspaceConfig{N: 1, Seed: e.seed})
	if err != nil {
		panic(err) // N > 0 is the only requirement
	}
	return ks
}

// Disjoint rank ranges of the keyspace. Members of a preloaded filter
// are ranks [0, preload); everything else starts far above any preload.
const (
	absentBase = 1 << 40 // never-inserted probes drawn during the timed phase
	fprBase    = 2 << 40 // the fixed FPR probe set, read after the timed phase
	freshBase  = 3 << 40 // fresh inserts; sender s uses freshBase + s<<36 + i
	rungBase   = 4 << 40 // keys only the in-process rungs insert
)
