package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	mpcbf "repro"
	"repro/elastic"
	"repro/server/ns"
	"repro/server/wire"
)

// Unified observability: ServerSnapshot is the single point-in-time view
// of the serving process. Both expositions render from it — /metrics
// formats a snapshot as Prometheus text, /debug/vars marshals the same
// struct as JSON — so the two can never drift apart.

// ServerSnapshot is one consistent-enough cut of every operational gauge
// and counter the server exports.
type ServerSnapshot struct {
	Ops       map[string]uint64 `json:"ops"` // per-op request counts, by wire op name
	OpsTotal  uint64            `json:"ops_total"`
	OpErrors  uint64            `json:"op_errors"`
	Conns     ConnSnapshot      `json:"conns"`
	BytesIn   uint64            `json:"bytes_in"`
	BytesOut  uint64            `json:"bytes_out"`
	LatencyNs HistSnapshot      `json:"request_latency_ns"`

	Filter FilterSnapshot     `json:"filter"`
	Shards []mpcbf.ShardStats `json:"shards"`
	// Window is present only when the store runs in sliding-window mode.
	Window *WindowSnapshot `json:"window,omitempty"`
	// Elastic is present only when the store runs in elastic mode.
	Elastic *ElasticSnapshot `json:"elastic,omitempty"`
	// Ring is present once a reshard coordinator has pushed a partition
	// map (RING_SET) to this node.
	Ring *RingSnapshot `json:"ring,omitempty"`

	// Namespaces is present only when named namespaces exist: the
	// registry totals plus one entry per namespace, sorted by name.
	Namespaces *NamespacesSnapshot `json:"namespaces,omitempty"`

	WAL         WALSnapshot      `json:"wal"`
	Replication ReplicationStats `json:"replication"`
	Trace       TraceCounts      `json:"trace"`
	Runtime     RuntimeSnapshot  `json:"runtime"`
	Ready       bool             `json:"ready"`
}

// NamespacesSnapshot is the multi-tenant slice of a ServerSnapshot.
type NamespacesSnapshot struct {
	Totals  ns.Totals          `json:"totals"`
	Entries []ns.EntrySnapshot `json:"entries"`
}

// ConnSnapshot is the connection accounting slice of a ServerSnapshot.
type ConnSnapshot struct {
	Open     int64  `json:"open"`
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
}

// FilterSnapshot is the aggregate filter state slice of a ServerSnapshot.
type FilterSnapshot struct {
	Len            int     `json:"len"`
	FillRatio      float64 `json:"fill_ratio"`
	SaturatedWords int     `json:"saturated_words"`
	MemoryBits     int     `json:"memory_bits"`
	Shards         int     `json:"shards"`
}

// WindowSnapshot is the sliding-window slice of a ServerSnapshot: the
// generation ring's shape, per-slot occupancy, and rotation latency.
type WindowSnapshot struct {
	SpanNs        int64        `json:"span_ns"`
	RotateEveryNs int64        `json:"rotate_every_ns"`
	Generations   int          `json:"generations"`
	Head          int          `json:"head"`
	Rotations     uint64       `json:"rotations"`
	GenItems      []int        `json:"gen_items"`
	RotationNs    HistSnapshot `json:"rotation_ns"`
}

// ElasticSnapshot is the generational-growth slice of a ServerSnapshot:
// the chain's shape, its FPR budget accounting, and per-generation
// occupancy (oldest first; the last entry is the head).
type ElasticSnapshot struct {
	Generations int    `json:"generations"`
	Grows       uint32 `json:"grows"`
	Imports     uint64 `json:"imports"`
	// ImportedKeys/ImportedBytes total the current population and memory
	// of the imported (frozen) generations — how much resharded state
	// this node is carrying. Derived from the chain, so they survive
	// restarts with it.
	ImportedKeys  int                `json:"imported_keys"`
	ImportedBytes int64              `json:"imported_bytes"`
	TargetFPR     float64            `json:"target_fpr"`
	ExpectedFPR   float64            `json:"expected_fpr"`
	Gens          []elastic.GenStats `json:"gens"`
}

// RingSnapshot summarizes the cluster partition map this node last
// adopted: reshard progress reads as epoch advancing and the joint
// (dual-write) flag clearing at cutover.
type RingSnapshot struct {
	Epoch    uint64 `json:"epoch"`
	Joint    bool   `json:"joint"`
	OldNodes int    `json:"old_nodes"`
	NewNodes int    `json:"new_nodes"`
	// JointSeconds is how long this node has been in the current joint
	// (dual-write) epoch, 0 outside one — a reshard stuck mid-flight
	// reads as this gauge climbing without the joint flag clearing.
	JointSeconds float64 `json:"joint_seconds"`
}

// WALSnapshot is the durability slice of a ServerSnapshot. The
// last-snapshot fields are computed here, once, for both expositions:
// LastSnapshotUnixNano is 0 and LastSnapshotAgeSeconds -1 when no
// snapshot has been taken yet.
type WALSnapshot struct {
	Records                uint64       `json:"records"`
	Syncs                  uint64       `json:"syncs"`
	GroupCommits           uint64       `json:"group_commits"`
	Waiters                int64        `json:"waiters"`
	Snapshots              uint64       `json:"snapshots"`
	ReplayedRecords        int          `json:"replayed_records"`
	LastSnapshotUnixNano   int64        `json:"last_snapshot_unix_nano"`
	LastSnapshotAgeSeconds float64      `json:"last_snapshot_age_seconds"`
	FsyncNs                HistSnapshot `json:"fsync_ns"`
	BatchKeys              HistSnapshot `json:"batch_keys"`
	GroupRecords           HistSnapshot `json:"group_records"`
	CommitNs               HistSnapshot `json:"commit_ns"`
}

// TraceCounts summarizes the request tracer: IDs assigned, entries
// sampled into the recent ring, and slow-threshold hits.
type TraceCounts struct {
	Requests uint64 `json:"requests"`
	Sampled  uint64 `json:"sampled"`
	Slow     uint64 `json:"slow"`
}

// RuntimeSnapshot is the Go-runtime slice of a ServerSnapshot.
type RuntimeSnapshot struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapSysBytes   uint64 `json:"heap_sys_bytes"`
	HeapObjects    uint64 `json:"heap_objects"`
	GCCycles       uint32 `json:"gc_cycles"`
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`
}

// Snapshot collects the full observability state. Counters are read
// atomically; the filter gauges briefly take each shard's read lock, and
// read each word once, in registers, without allocating; runtime stats
// come from runtime.ReadMemStats.
func (s *Server) Snapshot() ServerSnapshot {
	snap := ServerSnapshot{
		Ops:      make(map[string]uint64, len(wire.OpNames())),
		OpErrors: s.metrics.errors.Load(),
		Conns: ConnSnapshot{
			Open:     s.metrics.open.Load(),
			Accepted: s.metrics.accepted.Load(),
			Rejected: s.metrics.rejected.Load(),
		},
		BytesIn:   s.metrics.bytesIn.Load(),
		BytesOut:  s.metrics.bytesOut.Load(),
		LatencyNs: s.metrics.lat.Snapshot(),
	}
	for op, name := range wire.OpNames() {
		n := s.metrics.ops[op].Load()
		snap.Ops[name] = n
		snap.OpsTotal += n
	}

	// One load of the default filter's state: a replica bootstrap may swap
	// its mode between any two reads. Each mode reads its per-shard stats
	// and its fill ratio in one walk over the words. A chain's per-shard
	// stats come from its head generation, the live insert target, where
	// load skew shows first; its fill ratio is the mode's own: the
	// fullest generation of a window, the head of an elastic chain.
	def := s.store.reg.Default().State()
	var f interface {
		Len() int
		SaturatedWords() int
		MemoryBits() int
	}
	switch {
	case def.Filter != nil:
		f = def.Filter
		snap.Shards, snap.Filter.FillRatio = def.Filter.ShardStats()
	case def.Window != nil:
		f = def.Window
		snap.Shards, snap.Filter.FillRatio = def.Window.ShardStats()
		st := def.Window.Stats()
		snap.Window = &WindowSnapshot{
			SpanNs:        int64(st.Span),
			RotateEveryNs: int64(st.RotateEvery),
			Generations:   st.Generations,
			Head:          st.Head,
			Rotations:     st.Rotations,
			GenItems:      st.GenItems,
			RotationNs:    s.store.RotationHist(),
		}
	default:
		f = def.Elastic
		st := def.Elastic.Stats()
		snap.Shards, snap.Filter.FillRatio = st.Shards, st.Gens[len(st.Gens)-1].FillRatio
		es := &ElasticSnapshot{
			Generations: st.Generations,
			Grows:       st.Grows,
			Imports:     st.Imports,
			TargetFPR:   st.TargetFPR,
			ExpectedFPR: def.Elastic.ExpectedFPR(),
			Gens:        st.Gens,
		}
		for _, g := range st.Gens {
			if g.Imported {
				es.ImportedKeys += g.Items
				es.ImportedBytes += int64(g.MemoryBits / 8)
			}
		}
		snap.Elastic = es
	}
	snap.Filter.Len = f.Len()
	snap.Filter.SaturatedWords = f.SaturatedWords()
	snap.Filter.MemoryBits = f.MemoryBits()
	snap.Filter.Shards = len(snap.Shards)
	if r := s.ring.Load(); r != nil {
		rs := &RingSnapshot{Epoch: r.Epoch, Joint: r.Joint, OldNodes: len(r.Old), NewNodes: len(r.New)}
		if r.Joint {
			if at := s.ringAdopted.Load(); at != 0 {
				rs.JointSeconds = time.Since(time.Unix(0, at)).Seconds()
			}
		}
		snap.Ring = rs
	}

	if reg := s.store.Namespaces(); reg.Len() > 0 {
		entries, totals := reg.Snapshot()
		snap.Namespaces = &NamespacesSnapshot{Totals: totals, Entries: entries}
	}

	st := s.store.Stats()
	snap.WAL = WALSnapshot{
		Records:                st.WALRecords,
		Syncs:                  st.WALSyncs,
		Snapshots:              st.Snapshots,
		ReplayedRecords:        st.ReplayedRecords,
		LastSnapshotAgeSeconds: -1,
	}
	if !st.LastSnapshot.IsZero() {
		snap.WAL.LastSnapshotUnixNano = st.LastSnapshot.UnixNano()
		snap.WAL.LastSnapshotAgeSeconds = time.Since(st.LastSnapshot).Seconds()
	}
	snap.WAL.FsyncNs, snap.WAL.BatchKeys = s.store.WALHists()
	snap.WAL.GroupRecords, snap.WAL.CommitNs = s.store.WALGroupHists()
	snap.WAL.GroupCommits, snap.WAL.Waiters = s.store.WALGroupStats()

	snap.Replication = s.ReplicationStats()

	rep := s.tracer.Report()
	snap.Trace = TraceCounts{Requests: rep.Requests, Sampled: rep.Sampled, Slow: rep.Slow}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.Runtime = RuntimeSnapshot{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapSysBytes:   ms.HeapSys,
		HeapObjects:    ms.HeapObjects,
		GCCycles:       ms.NumGC,
		GCPauseTotalNs: ms.PauseTotalNs,
	}

	snap.Ready = s.ready()
	return snap
}

// ready reports whether the process should accept traffic: not draining,
// and past any caller-supplied readiness gate (a replica mid-bootstrap).
func (s *Server) ready() bool {
	if s.closed.Load() {
		return false
	}
	if s.cfg.Ready != nil && !s.cfg.Ready() {
		return false
	}
	return true
}

func promCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func promGaugeInt(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

func promGaugeFloat(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// WriteProm renders snap as Prometheus text exposition (version 0.0.4).
// Every series carries # HELP and # TYPE lines, emitted once per metric
// name, before its samples.
func (snap ServerSnapshot) WriteProm(w io.Writer) {
	// Per-op request counters under one metric name; sorted for a
	// deterministic exposition.
	ops := make([]string, 0, len(snap.Ops))
	for name := range snap.Ops {
		ops = append(ops, name)
	}
	sort.Strings(ops)
	fmt.Fprintf(w, "# HELP mpcbfd_requests_total Requests served, by wire operation.\n")
	fmt.Fprintf(w, "# TYPE mpcbfd_requests_total counter\n")
	for _, name := range ops {
		fmt.Fprintf(w, "mpcbfd_requests_total{op=%q} %d\n", name, snap.Ops[name])
	}
	promCounter(w, "mpcbfd_request_errors_total", "Requests that returned an error status.", snap.OpErrors)
	snap.LatencyNs.WritePromSeconds(w, "mpcbfd_request_duration_seconds", "Request latency from dispatch to response encoding.")
	// Pre-interpolated quantile gauges beside the raw histogram: dashboards
	// that can't run histogram_quantile (or want the server's own
	// interpolation) read these directly.
	promGaugeFloat(w, "mpcbfd_request_latency_p50_seconds", "Interpolated request-latency median.", snap.LatencyNs.Quantile(0.50)/1e9)
	promGaugeFloat(w, "mpcbfd_request_latency_p99_seconds", "Interpolated request-latency 99th percentile.", snap.LatencyNs.Quantile(0.99)/1e9)

	promGaugeInt(w, "mpcbfd_connections_open", "Connections currently open.", snap.Conns.Open)
	promCounter(w, "mpcbfd_connections_accepted_total", "Connections accepted.", snap.Conns.Accepted)
	promCounter(w, "mpcbfd_connections_rejected_total", "Connections refused by the MaxConns limit.", snap.Conns.Rejected)
	promCounter(w, "mpcbfd_bytes_in_total", "Request frame bytes received.", snap.BytesIn)
	promCounter(w, "mpcbfd_bytes_out_total", "Response frame bytes sent.", snap.BytesOut)

	promGaugeInt(w, "mpcbfd_filter_len", "Elements currently in the filter.", int64(snap.Filter.Len))
	promGaugeFloat(w, "mpcbfd_filter_fill_ratio", "Fraction of increment capacity consumed (0..1).", snap.Filter.FillRatio)
	promGaugeInt(w, "mpcbfd_filter_saturated_words", "HCBF words frozen as always-positive by overflow.", int64(snap.Filter.SaturatedWords))
	promGaugeInt(w, "mpcbfd_filter_memory_bits", "Aggregate filter footprint in bits.", int64(snap.Filter.MemoryBits))
	promGaugeInt(w, "mpcbfd_filter_shards", "Shard count of the filter.", int64(snap.Filter.Shards))

	writeShardProm(w, snap.Shards)

	if win := snap.Window; win != nil {
		promGaugeFloat(w, "mpcbfd_window_span_seconds", "Configured sliding-window span.", float64(win.SpanNs)/1e9)
		promGaugeFloat(w, "mpcbfd_window_rotate_every_seconds", "Rotation period (span / generations): the staleness bound.", float64(win.RotateEveryNs)/1e9)
		promGaugeInt(w, "mpcbfd_window_generations", "Generation ring size G.", int64(win.Generations))
		promGaugeInt(w, "mpcbfd_window_head", "Ring slot currently receiving inserts.", int64(win.Head))
		promCounter(w, "mpcbfd_window_rotations_total", "Ring rotations since the window was created.", win.Rotations)
		fmt.Fprintf(w, "# HELP mpcbfd_window_generation_items Elements per generation, by ring slot.\n# TYPE mpcbfd_window_generation_items gauge\n")
		for i, n := range win.GenItems {
			fmt.Fprintf(w, "mpcbfd_window_generation_items{gen=\"%d\"} %d\n", i, n)
		}
		win.RotationNs.WritePromSeconds(w, "mpcbfd_window_rotation_duration_seconds", "Time holding the mutation lock per ring rotation.")
	}

	if el := snap.Elastic; el != nil {
		promGaugeInt(w, "mpcbfd_elastic_generations", "Generations in the elastic chain (including imports).", int64(el.Generations))
		promCounter(w, "mpcbfd_elastic_grows_total", "Growth events: new head generations appended since the chain was created.", uint64(el.Grows))
		promCounter(w, "mpcbfd_elastic_imports_total", "Frozen generations spliced in by IMPORT (resharding).", el.Imports)
		promGaugeInt(w, "mpcbfd_elastic_imported_keys", "Population of the imported (frozen) generations — keys moved here by resharding.", int64(el.ImportedKeys))
		promGaugeInt(w, "mpcbfd_elastic_imported_bytes", "Memory held by imported generations.", el.ImportedBytes)
		promGaugeFloat(w, "mpcbfd_elastic_target_fpr", "Chain-wide false positive bound the growth schedule maintains.", el.TargetFPR)
		promGaugeFloat(w, "mpcbfd_elastic_expected_fpr", "Analytic chain FPR at current occupancy (union bound over generations).", el.ExpectedFPR)
		emitGen := func(name, help string, val func(g elastic.GenStats) string) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for i, g := range el.Gens {
				fmt.Fprintf(w, "%s{gen=\"%d\"} %s\n", name, i, val(g))
			}
		}
		emitGen("mpcbfd_elastic_generation_items", "Elements per chain generation (oldest first).",
			func(g elastic.GenStats) string { return fmt.Sprintf("%d", g.Items) })
		emitGen("mpcbfd_elastic_generation_fill_ratio", "Fill ratio per chain generation (0..1).",
			func(g elastic.GenStats) string { return fmt.Sprintf("%g", g.FillRatio) })
		emitGen("mpcbfd_elastic_generation_fpr_budget", "Tightened FPR budget per generation (0 for imported generations).",
			func(g elastic.GenStats) string { return fmt.Sprintf("%g", g.Budget) })
	}

	if r := snap.Ring; r != nil {
		promGaugeInt(w, "mpcbfd_ring_epoch", "Cluster partition-map epoch this node last adopted.", int64(r.Epoch))
		joint := int64(0)
		if r.Joint {
			joint = 1
		}
		promGaugeInt(w, "mpcbfd_ring_joint", "1 during a reshard's dual-write window, 0 after cutover.", joint)
		promGaugeInt(w, "mpcbfd_ring_old_nodes", "Primaries in the outgoing partition map.", int64(r.OldNodes))
		promGaugeInt(w, "mpcbfd_ring_new_nodes", "Primaries in the incoming partition map.", int64(r.NewNodes))
		promGaugeFloat(w, "mpcbfd_ring_joint_seconds", "Seconds spent in the current dual-write window (0 outside one).", r.JointSeconds)
	}

	if n := snap.Namespaces; n != nil {
		writeNamespaceProm(w, n)
	}

	promCounter(w, "mpcbfd_wal_records_total", "Mutations appended to the write-ahead log.", snap.WAL.Records)
	promCounter(w, "mpcbfd_wal_syncs_total", "WAL fsync calls.", snap.WAL.Syncs)
	promCounter(w, "mpcbfd_snapshots_total", "Snapshots written since start.", snap.WAL.Snapshots)
	promGaugeInt(w, "mpcbfd_replayed_records", "WAL records replayed at the last open.", int64(snap.WAL.ReplayedRecords))
	promGaugeFloat(w, "mpcbfd_last_snapshot_age_seconds", "Seconds since the last snapshot (-1 before the first).", snap.WAL.LastSnapshotAgeSeconds)
	snap.WAL.FsyncNs.WritePromSeconds(w, "mpcbfd_wal_fsync_duration_seconds", "WAL fsync latency.")
	promGaugeFloat(w, "mpcbfd_wal_fsync_p50_seconds", "Interpolated WAL fsync latency median.", snap.WAL.FsyncNs.Quantile(0.50)/1e9)
	promGaugeFloat(w, "mpcbfd_wal_fsync_p99_seconds", "Interpolated WAL fsync latency 99th percentile.", snap.WAL.FsyncNs.Quantile(0.99)/1e9)
	snap.WAL.BatchKeys.WritePromCounts(w, "mpcbfd_wal_batch_keys", "Keys committed per WAL append.")
	promCounter(w, "mpcbfd_wal_group_commits_total", "Commit rounds (one write+fsync shared by every record enqueued when the round began).", snap.WAL.GroupCommits)
	promGaugeInt(w, "mpcbfd_wal_commit_waiters", "Callers currently blocked waiting for a commit round.", snap.WAL.Waiters)
	snap.WAL.GroupRecords.WritePromCounts(w, "mpcbfd_wal_group_records", "Records per commit round: the group-commit amortization factor.")
	snap.WAL.CommitNs.WritePromSeconds(w, "mpcbfd_wal_commit_duration_seconds", "Commit round latency (buffer swap + write + fsync).")

	promGaugeInt(w, "mpcbfd_connected_replicas", "Replication subscribers currently streaming.", int64(snap.Replication.Connected))
	promGaugeInt(w, "mpcbfd_replication_max_lag_bytes", "WAL bytes the furthest-behind subscriber trails the WAL's logical end, pending bytes included.", snap.Replication.MaxLagBytes)

	promCounter(w, "mpcbfd_trace_requests_total", "Request IDs assigned by the tracer.", snap.Trace.Requests)
	promCounter(w, "mpcbfd_trace_sampled_total", "Requests sampled into the recent-trace ring.", snap.Trace.Sampled)
	promCounter(w, "mpcbfd_trace_slow_total", "Requests over the slow-op threshold.", snap.Trace.Slow)

	promGaugeInt(w, "mpcbfd_goroutines", "Goroutines in the process.", int64(snap.Runtime.Goroutines))
	promGaugeInt(w, "mpcbfd_heap_alloc_bytes", "Bytes of allocated heap objects.", int64(snap.Runtime.HeapAllocBytes))
	promGaugeInt(w, "mpcbfd_heap_sys_bytes", "Heap memory obtained from the OS.", int64(snap.Runtime.HeapSysBytes))
	promGaugeInt(w, "mpcbfd_heap_objects", "Live heap objects.", int64(snap.Runtime.HeapObjects))
	promCounter(w, "mpcbfd_gc_cycles_total", "Completed GC cycles.", uint64(snap.Runtime.GCCycles))
	promGaugeFloat(w, "mpcbfd_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", float64(snap.Runtime.GCPauseTotalNs)/1e9)

	ready := int64(0)
	if snap.Ready {
		ready = 1
	}
	promGaugeInt(w, "mpcbfd_ready", "1 when the process is accepting traffic (see /readyz).", ready)
}

// writeNamespaceProm renders the multi-tenant families: registry-wide
// totals plus per-namespace series labeled {ns=...}. Only emitted when
// namespaces exist, so a single-tenant daemon's exposition is unchanged.
func writeNamespaceProm(w io.Writer, n *NamespacesSnapshot) {
	promGaugeInt(w, "mpcbfd_ns_count", "Named namespaces in the registry.", int64(n.Totals.Count))
	promGaugeInt(w, "mpcbfd_ns_resident_count", "Named namespaces currently resident in memory.", int64(n.Totals.Resident))
	promGaugeInt(w, "mpcbfd_ns_quota_bytes", "Memory budget across all named namespaces (0: unlimited).", n.Totals.QuotaBytes)
	promGaugeInt(w, "mpcbfd_ns_resident_bytes", "Summed filter bytes of resident named namespaces.", n.Totals.ResidentBytes)
	promCounter(w, "mpcbfd_ns_reused_bytes_total", "Filter bytes recoveries took from the namespaces they evicted instead of allocating.", n.Totals.ReusedBytes)

	emit := func(name, typ, help string, val func(e ns.EntrySnapshot) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, e := range n.Entries {
			fmt.Fprintf(w, "%s{ns=%q} %d\n", name, e.Name, val(e))
		}
	}
	emit("mpcbfd_ns_items", "gauge", "Elements per namespace.",
		func(e ns.EntrySnapshot) uint64 { return e.Items })
	emit("mpcbfd_ns_memory_bytes", "gauge", "Filter footprint per namespace in bytes.",
		func(e ns.EntrySnapshot) uint64 { return e.MemoryBytes })
	emit("mpcbfd_ns_resident", "gauge", "1 when the namespace is resident, 0 when evicted to disk.",
		func(e ns.EntrySnapshot) uint64 {
			if e.Resident {
				return 1
			}
			return 0
		})
	emit("mpcbfd_ns_evictions_total", "counter", "Times each namespace was evicted to its snapshot file.",
		func(e ns.EntrySnapshot) uint64 { return e.Evictions })
	emit("mpcbfd_ns_recoveries_total", "counter", "Times each namespace was recovered from its snapshot file.",
		func(e ns.EntrySnapshot) uint64 { return e.Recoveries })
	emit("mpcbfd_ns_elastic_generations", "gauge", "Elastic chain length per namespace (0: not elastic).",
		func(e ns.EntrySnapshot) uint64 { return uint64(e.Generations) })
}

// writeShardProm renders the per-shard gauge families, one HELP/TYPE
// block per metric name with a sample per shard.
func writeShardProm(w io.Writer, shards []mpcbf.ShardStats) {
	emit := func(name, typ, help string, val func(st mpcbf.ShardStats) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for i, st := range shards {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %s\n", name, i, val(st))
		}
	}
	emit("mpcbfd_shard_items", "gauge", "Elements per shard.",
		func(st mpcbf.ShardStats) string { return fmt.Sprintf("%d", st.Items) })
	emit("mpcbfd_shard_fill_ratio", "gauge", "Fraction of increment capacity consumed per shard (0..1).",
		func(st mpcbf.ShardStats) string { return fmt.Sprintf("%g", st.FillRatio) })
	emit("mpcbfd_shard_saturated_words", "gauge", "Saturated HCBF words per shard.",
		func(st mpcbf.ShardStats) string { return fmt.Sprintf("%d", st.SaturatedWords) })
	emit("mpcbfd_shard_inserts_total", "counter", "Insert operations routed to each shard.",
		func(st mpcbf.ShardStats) string { return fmt.Sprintf("%d", st.Inserts) })
	emit("mpcbfd_shard_deletes_total", "counter", "Delete operations routed to each shard.",
		func(st mpcbf.ShardStats) string { return fmt.Sprintf("%d", st.Deletes) })
	emit("mpcbfd_shard_queries_total", "counter", "Membership and count queries routed to each shard.",
		func(st mpcbf.ShardStats) string { return fmt.Sprintf("%d", st.Queries) })
}

// WriteProm writes the full Prometheus exposition for s: a fresh
// snapshot plus any Config.Extra contribution.
func (s *Server) WriteProm(w io.Writer) {
	s.Snapshot().WriteProm(w)
	if s.cfg.Extra != nil {
		s.cfg.Extra.WriteProm(w)
	}
}

// Vars returns the expvar document: the same snapshot /metrics renders,
// plus any Config.Extra contribution under its own keys.
func (s *Server) Vars() map[string]any {
	m := map[string]any{"server": s.Snapshot()}
	if s.cfg.Extra != nil {
		for k, v := range s.cfg.Extra.Vars() {
			m[k] = v
		}
	}
	return m
}
