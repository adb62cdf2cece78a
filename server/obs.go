package server

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	mpcbf "repro"
	"repro/elastic"
	"repro/internal/prom"
	"repro/server/ns"
	"repro/server/wire"
	"repro/window"
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
	// Resident is present only on Linux, whose /proc/self/status it
	// reads.
	Resident *ResidentSnapshot `json:"resident,omitempty"`
	Ready    bool              `json:"ready"`
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

// ResidentSnapshot is the process's resident set as Linux splits it in
// /proc/self/status: anonymous pages (RssAnon: the heap, so the filter
// arenas, and stacks) and file-backed pages (RssFile: the binary and the
// libraries it maps).
type ResidentSnapshot struct {
	AnonBytes int64 `json:"anon_bytes"`
	FileBytes int64 `json:"file_bytes"`
}

// readResident reads RssAnon and RssFile from /proc/self/status into a
// fixed buffer, so a scrape allocates the same whatever the file says.
// It returns nil where the file or either line is missing: off Linux.
func readResident() *ResidentSnapshot {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return nil
	}
	defer f.Close()
	var buf [4096]byte
	n, _ := io.ReadFull(f, buf[:])
	anon, okAnon := statusBytes(buf[:n], "RssAnon:")
	file, okFile := statusBytes(buf[:n], "RssFile:")
	if !okAnon || !okFile {
		return nil
	}
	return &ResidentSnapshot{AnonBytes: anon, FileBytes: file}
}

// statusBytes returns the value of the /proc status line that starts
// with key, a count of kB, in bytes.
func statusBytes(status []byte, key string) (int64, bool) {
	for len(status) > 0 {
		line := status
		if i := bytes.IndexByte(status, '\n'); i >= 0 {
			line, status = status[:i], status[i+1:]
		} else {
			status = nil
		}
		if len(line) < len(key) || string(line[:len(key)]) != key {
			continue
		}
		kb, digits := int64(0), false
		for _, c := range line[len(key):] {
			switch {
			case c >= '0' && c <= '9':
				kb, digits = 10*kb+int64(c-'0'), true
			case digits:
				return kb << 10, true
			}
		}
		return kb << 10, digits
	}
	return 0, false
}

// Snapshot collects the full observability state. Counters are read
// atomically; the filter gauges briefly take each shard's read lock, and
// read each word once, in registers, without allocating; runtime stats
// come from runtime.ReadMemStats, and the resident set from
// /proc/self/status.
func (s *Server) Snapshot() ServerSnapshot {
	snap := ServerSnapshot{
		Ops:      make(map[string]uint64, wire.MaxOp),
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
	for op := byte(1); op <= wire.MaxOp; op++ {
		n := s.metrics.ops[op].Load()
		snap.Ops[wire.OpName(op)] = n
		snap.OpsTotal += n
	}

	// One load of the default filter's state: a replica bootstrap may swap
	// its mode between any two reads. Each mode reads its per-shard stats
	// and its fill ratio in one walk over the words. A chain's per-shard
	// stats come from its head generation, the live insert target, where
	// load skew shows first; its fill ratio is the mode's own: the
	// fullest generation of a window, the head of an elastic chain.
	def := s.store.reg.Default().Live()
	switch f := def.(type) {
	case *mpcbf.Sharded:
		snap.Shards, snap.Filter.FillRatio = f.ShardStats()
	case *window.Filter:
		snap.Shards, snap.Filter.FillRatio = f.ShardStats()
		st := f.Stats()
		snap.Window = &WindowSnapshot{
			SpanNs:        int64(st.Span),
			RotateEveryNs: int64(st.RotateEvery),
			Generations:   st.Generations,
			Head:          st.Head,
			Rotations:     st.Rotations,
			GenItems:      st.GenItems,
			RotationNs:    s.store.RotationHist(),
		}
	case *elastic.Filter:
		st := f.Stats()
		snap.Shards, snap.Filter.FillRatio = st.Shards, st.Gens[len(st.Gens)-1].FillRatio
		es := &ElasticSnapshot{
			Generations: st.Generations,
			Grows:       st.Grows,
			Imports:     st.Imports,
			TargetFPR:   st.TargetFPR,
			ExpectedFPR: f.ExpectedFPR(),
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
	snap.Filter.Len = def.Len()
	snap.Filter.SaturatedWords = def.SaturatedWords()
	snap.Filter.MemoryBits = def.MemoryBits()
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
	snap.Resident = readResident()

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
	prom.Family(w, "mpcbfd_requests_total", "counter", "Requests served, by wire operation.", "op", len(ops),
		func(i int) (string, uint64) { return ops[i], snap.Ops[ops[i]] })
	prom.Counter(w, "mpcbfd_request_errors_total", "Requests that returned an error status.", snap.OpErrors)
	snap.LatencyNs.WritePromSeconds(w, "mpcbfd_request_duration_seconds", "Request latency from dispatch to response encoding.")
	// Pre-interpolated quantile gauges beside the raw histogram: dashboards
	// that can't run histogram_quantile (or want the server's own
	// interpolation) read these directly.
	prom.Gauge(w, "mpcbfd_request_latency_p50_seconds", "Interpolated request-latency median.", snap.LatencyNs.Quantile(0.50)/1e9)
	prom.Gauge(w, "mpcbfd_request_latency_p99_seconds", "Interpolated request-latency 99th percentile.", snap.LatencyNs.Quantile(0.99)/1e9)

	prom.Gauge(w, "mpcbfd_connections_open", "Connections currently open.", snap.Conns.Open)
	prom.Counter(w, "mpcbfd_connections_accepted_total", "Connections accepted.", snap.Conns.Accepted)
	prom.Counter(w, "mpcbfd_connections_rejected_total", "Connections refused by the MaxConns limit.", snap.Conns.Rejected)
	prom.Counter(w, "mpcbfd_bytes_in_total", "Request frame bytes received.", snap.BytesIn)
	prom.Counter(w, "mpcbfd_bytes_out_total", "Response frame bytes sent.", snap.BytesOut)

	prom.Gauge(w, "mpcbfd_filter_len", "Elements currently in the filter.", snap.Filter.Len)
	prom.Gauge(w, "mpcbfd_filter_fill_ratio", "Fraction of increment capacity consumed (0..1).", snap.Filter.FillRatio)
	prom.Gauge(w, "mpcbfd_filter_saturated_words", "HCBF words frozen as always-positive by overflow.", snap.Filter.SaturatedWords)
	prom.Gauge(w, "mpcbfd_filter_memory_bits", "Aggregate filter footprint in bits.", snap.Filter.MemoryBits)
	prom.Gauge(w, "mpcbfd_filter_shards", "Shard count of the filter.", snap.Filter.Shards)

	writeShardProm(w, snap.Shards)

	if win := snap.Window; win != nil {
		prom.Gauge(w, "mpcbfd_window_span_seconds", "Configured sliding-window span.", float64(win.SpanNs)/1e9)
		prom.Gauge(w, "mpcbfd_window_rotate_every_seconds", "Rotation period (span / generations): the staleness bound.", float64(win.RotateEveryNs)/1e9)
		prom.Gauge(w, "mpcbfd_window_generations", "Generation ring size G.", win.Generations)
		prom.Gauge(w, "mpcbfd_window_head", "Ring slot currently receiving inserts.", win.Head)
		prom.Counter(w, "mpcbfd_window_rotations_total", "Ring rotations since the window was created.", win.Rotations)
		prom.Family(w, "mpcbfd_window_generation_items", "gauge", "Elements per generation, by ring slot.", "gen", len(win.GenItems),
			func(i int) (string, int) { return strconv.Itoa(i), win.GenItems[i] })
		win.RotationNs.WritePromSeconds(w, "mpcbfd_window_rotation_duration_seconds", "Time holding the mutation lock per ring rotation.")
	}

	if el := snap.Elastic; el != nil {
		prom.Gauge(w, "mpcbfd_elastic_generations", "Generations in the elastic chain (including imports).", el.Generations)
		prom.Counter(w, "mpcbfd_elastic_grows_total", "Growth events: new head generations appended since the chain was created.", el.Grows)
		prom.Counter(w, "mpcbfd_elastic_imports_total", "Frozen generations spliced in by IMPORT (resharding).", el.Imports)
		prom.Gauge(w, "mpcbfd_elastic_imported_keys", "Population of the imported (frozen) generations — keys moved here by resharding.", el.ImportedKeys)
		prom.Gauge(w, "mpcbfd_elastic_imported_bytes", "Memory held by imported generations.", el.ImportedBytes)
		prom.Gauge(w, "mpcbfd_elastic_target_fpr", "Chain-wide false positive bound the growth schedule maintains.", el.TargetFPR)
		prom.Gauge(w, "mpcbfd_elastic_expected_fpr", "Analytic chain FPR at current occupancy (union bound over generations).", el.ExpectedFPR)
		prom.Family(w, "mpcbfd_elastic_generation_items", "gauge", "Elements per chain generation (oldest first).", "gen", len(el.Gens),
			func(i int) (string, int) { return strconv.Itoa(i), el.Gens[i].Items })
		prom.Family(w, "mpcbfd_elastic_generation_fill_ratio", "gauge", "Fill ratio per chain generation (0..1).", "gen", len(el.Gens),
			func(i int) (string, float64) { return strconv.Itoa(i), el.Gens[i].FillRatio })
		prom.Family(w, "mpcbfd_elastic_generation_fpr_budget", "gauge", "Tightened FPR budget per generation (0 for imported generations).", "gen", len(el.Gens),
			func(i int) (string, float64) { return strconv.Itoa(i), el.Gens[i].Budget })
	}

	if r := snap.Ring; r != nil {
		prom.Gauge(w, "mpcbfd_ring_epoch", "Cluster partition-map epoch this node last adopted.", int64(r.Epoch))
		prom.Gauge(w, "mpcbfd_ring_joint", "1 during a reshard's dual-write window, 0 after cutover.", prom.Bool(r.Joint))
		prom.Gauge(w, "mpcbfd_ring_old_nodes", "Primaries in the outgoing partition map.", r.OldNodes)
		prom.Gauge(w, "mpcbfd_ring_new_nodes", "Primaries in the incoming partition map.", r.NewNodes)
		prom.Gauge(w, "mpcbfd_ring_joint_seconds", "Seconds spent in the current dual-write window (0 outside one).", r.JointSeconds)
	}

	if n := snap.Namespaces; n != nil {
		writeNamespaceProm(w, n)
	}

	prom.Counter(w, "mpcbfd_wal_records_total", "Mutations appended to the write-ahead log.", snap.WAL.Records)
	prom.Counter(w, "mpcbfd_wal_syncs_total", "WAL fsync calls.", snap.WAL.Syncs)
	prom.Counter(w, "mpcbfd_snapshots_total", "Snapshots written since start.", snap.WAL.Snapshots)
	prom.Gauge(w, "mpcbfd_replayed_records", "WAL records replayed at the last open.", snap.WAL.ReplayedRecords)
	prom.Gauge(w, "mpcbfd_last_snapshot_age_seconds", "Seconds since the last snapshot (-1 before the first).", snap.WAL.LastSnapshotAgeSeconds)
	snap.WAL.FsyncNs.WritePromSeconds(w, "mpcbfd_wal_fsync_duration_seconds", "WAL fsync latency.")
	prom.Gauge(w, "mpcbfd_wal_fsync_p50_seconds", "Interpolated WAL fsync latency median.", snap.WAL.FsyncNs.Quantile(0.50)/1e9)
	prom.Gauge(w, "mpcbfd_wal_fsync_p99_seconds", "Interpolated WAL fsync latency 99th percentile.", snap.WAL.FsyncNs.Quantile(0.99)/1e9)
	snap.WAL.BatchKeys.WritePromCounts(w, "mpcbfd_wal_batch_keys", "Keys committed per WAL append.")
	prom.Counter(w, "mpcbfd_wal_group_commits_total", "Commit rounds (one write+fsync shared by every record enqueued when the round began).", snap.WAL.GroupCommits)
	prom.Gauge(w, "mpcbfd_wal_commit_waiters", "Callers currently blocked waiting for a commit round.", snap.WAL.Waiters)
	snap.WAL.GroupRecords.WritePromCounts(w, "mpcbfd_wal_group_records", "Records per commit round: the group-commit amortization factor.")
	snap.WAL.CommitNs.WritePromSeconds(w, "mpcbfd_wal_commit_duration_seconds", "Commit round latency (buffer swap + write + fsync).")

	prom.Gauge(w, "mpcbfd_connected_replicas", "Replication subscribers currently streaming.", snap.Replication.Connected)
	prom.Gauge(w, "mpcbfd_replication_max_lag_bytes", "WAL bytes the furthest-behind subscriber trails the WAL's logical end, pending bytes included.", snap.Replication.MaxLagBytes)

	prom.Counter(w, "mpcbfd_trace_requests_total", "Request IDs assigned by the tracer.", snap.Trace.Requests)
	prom.Counter(w, "mpcbfd_trace_sampled_total", "Requests sampled into the recent-trace ring.", snap.Trace.Sampled)
	prom.Counter(w, "mpcbfd_trace_slow_total", "Requests over the slow-op threshold.", snap.Trace.Slow)

	prom.Gauge(w, "mpcbfd_goroutines", "Goroutines in the process.", snap.Runtime.Goroutines)
	prom.Gauge(w, "mpcbfd_heap_alloc_bytes", "Bytes of allocated heap objects.", snap.Runtime.HeapAllocBytes)
	prom.Gauge(w, "mpcbfd_heap_sys_bytes", "Heap memory obtained from the OS.", snap.Runtime.HeapSysBytes)
	prom.Gauge(w, "mpcbfd_heap_objects", "Live heap objects.", snap.Runtime.HeapObjects)
	prom.Counter(w, "mpcbfd_gc_cycles_total", "Completed GC cycles.", uint64(snap.Runtime.GCCycles))
	prom.Gauge(w, "mpcbfd_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", float64(snap.Runtime.GCPauseTotalNs)/1e9)
	if r := snap.Resident; r != nil {
		prom.Gauge(w, "mpcbfd_resident_anon_bytes", "Anonymous resident memory (RssAnon): the heap, filter arenas included, and stacks.", r.AnonBytes)
		prom.Gauge(w, "mpcbfd_resident_file_bytes", "File-backed resident memory (RssFile): the binary and the libraries it maps.", r.FileBytes)
	}

	prom.Gauge(w, "mpcbfd_ready", "1 when the process is accepting traffic (see /readyz).", prom.Bool(snap.Ready))
}

// writeNamespaceProm renders the multi-tenant families: registry-wide
// totals plus per-namespace series labeled {ns=...}. Only emitted when
// namespaces exist, so a single-tenant daemon's exposition is unchanged.
func writeNamespaceProm(w io.Writer, n *NamespacesSnapshot) {
	prom.Gauge(w, "mpcbfd_ns_count", "Named namespaces in the registry.", n.Totals.Count)
	prom.Gauge(w, "mpcbfd_ns_resident_count", "Named namespaces currently resident in memory.", n.Totals.Resident)
	prom.Gauge(w, "mpcbfd_ns_quota_bytes", "Memory budget across all named namespaces (0: unlimited).", n.Totals.QuotaBytes)
	prom.Gauge(w, "mpcbfd_ns_resident_bytes", "Summed configured filter bytes of resident named namespaces (pages never written are not resident).", n.Totals.ResidentBytes)
	prom.Counter(w, "mpcbfd_ns_reused_bytes_total", "Filter bytes recoveries took from the namespaces they evicted instead of allocating.", n.Totals.ReusedBytes)

	es := n.Entries
	each := func(name, typ, help string, val func(e *ns.EntrySnapshot) uint64) {
		prom.Family(w, name, typ, help, "ns", len(es), func(i int) (string, uint64) { return es[i].Name, val(&es[i]) })
	}
	each("mpcbfd_ns_items", "gauge", "Elements per namespace.",
		func(e *ns.EntrySnapshot) uint64 { return e.Items })
	each("mpcbfd_ns_memory_bytes", "gauge", "Filter footprint per namespace in bytes.",
		func(e *ns.EntrySnapshot) uint64 { return e.MemoryBytes })
	each("mpcbfd_ns_resident", "gauge", "1 when the namespace is resident, 0 when evicted to disk.",
		func(e *ns.EntrySnapshot) uint64 { return uint64(prom.Bool(e.Resident)) })
	each("mpcbfd_ns_evictions_total", "counter", "Times each namespace was evicted to its snapshot file.",
		func(e *ns.EntrySnapshot) uint64 { return e.Evictions })
	each("mpcbfd_ns_recoveries_total", "counter", "Times each namespace was recovered from its snapshot file.",
		func(e *ns.EntrySnapshot) uint64 { return e.Recoveries })
	each("mpcbfd_ns_elastic_generations", "gauge", "Elastic chain length per namespace (0: not elastic).",
		func(e *ns.EntrySnapshot) uint64 { return uint64(e.Generations) })
}

// writeShardProm renders the per-shard families, one HELP/TYPE block per
// metric name with a sample per shard.
func writeShardProm(w io.Writer, shards []mpcbf.ShardStats) {
	n := len(shards)
	prom.Family(w, "mpcbfd_shard_items", "gauge", "Elements per shard.", "shard", n,
		func(i int) (string, int) { return strconv.Itoa(i), shards[i].Items })
	prom.Family(w, "mpcbfd_shard_fill_ratio", "gauge", "Fraction of increment capacity consumed per shard (0..1).", "shard", n,
		func(i int) (string, float64) { return strconv.Itoa(i), shards[i].FillRatio })
	prom.Family(w, "mpcbfd_shard_saturated_words", "gauge", "Saturated HCBF words per shard.", "shard", n,
		func(i int) (string, int) { return strconv.Itoa(i), shards[i].SaturatedWords })
	prom.Family(w, "mpcbfd_shard_inserts_total", "counter", "Insert operations routed to each shard.", "shard", n,
		func(i int) (string, uint64) { return strconv.Itoa(i), shards[i].Inserts })
	prom.Family(w, "mpcbfd_shard_deletes_total", "counter", "Delete operations routed to each shard.", "shard", n,
		func(i int) (string, uint64) { return strconv.Itoa(i), shards[i].Deletes })
	prom.Family(w, "mpcbfd_shard_queries_total", "counter", "Membership and count queries routed to each shard.", "shard", n,
		func(i int) (string, uint64) { return strconv.Itoa(i), shards[i].Queries })
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
