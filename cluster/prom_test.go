package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/server/wire"
)

// TestReplicaPromExposition pins the replica's exposition, byte for
// byte, for fixed counters.
func TestReplicaPromExposition(t *testing.T) {
	r := &Replica{}
	r.connected.Store(true)
	r.bootstraps.Store(2)
	r.frames.Store(41)
	r.lagRecords.Store(3)
	r.lagBytes.Store(512)
	r.lagNanos.Store(int64(1500 * time.Microsecond))
	r.applyHist.Observe(3000)
	r.applyHist.Observe(70000)
	var b strings.Builder
	r.WriteProm(&b)
	if got := b.String(); got != replicaPromWant {
		t.Fatalf("replica exposition:\n%s\nwant:\n%s", got, replicaPromWant)
	}
}

// TestClusterClientPromExposition pins the cluster client's routing
// exposition, byte for byte, for fixed counters inside a joint epoch.
func TestClusterClientPromExposition(t *testing.T) {
	c, err := NewClient(ClientConfig{Nodes: []Node{{Primary: "10.0.0.1:7070"}, {Primary: "10.0.0.2:7070"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdateRing(wire.Ring{Epoch: 5, Joint: true, Old: []string{"10.0.0.1:7070", "10.0.0.2:7070"}, New: []string{"10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070"}}); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.allNodes() {
		n.requests.Store(uint64(100 + i))
		n.batches.Store(uint64(10 + i))
		n.batchKeys.Store(uint64(640 + i))
		n.failovers.Store(uint64(i))
		n.maybeApplied.Store(uint64(2 * i))
	}
	var b strings.Builder
	c.WriteProm(&b)
	if got := b.String(); got != clusterClientPromWant {
		t.Fatalf("cluster client exposition:\n%s\nwant:\n%s", got, clusterClientPromWant)
	}
}

// replicaPromWant is the exposition of TestReplicaPromExposition's counters.
const replicaPromWant = `# HELP mpcbfd_replica_connected Whether the replication stream is live.
# TYPE mpcbfd_replica_connected gauge
mpcbfd_replica_connected 1
# HELP mpcbfd_replica_lag_records Records behind the primary, per the last stream frame.
# TYPE mpcbfd_replica_lag_records gauge
mpcbfd_replica_lag_records 3
# HELP mpcbfd_replica_lag_bytes WAL bytes behind the primary, per the last stream frame.
# TYPE mpcbfd_replica_lag_bytes gauge
mpcbfd_replica_lag_bytes 512
# HELP mpcbfd_replica_lag_seconds Stamp-to-apply delay of the last stamped frame; ≈0 on an idle healthy pair.
# TYPE mpcbfd_replica_lag_seconds gauge
mpcbfd_replica_lag_seconds 0.0015
# HELP mpcbfd_replica_bootstraps_total Snapshot bootstraps consumed.
# TYPE mpcbfd_replica_bootstraps_total counter
mpcbfd_replica_bootstraps_total 2
# HELP mpcbfd_replica_frames_total Stream frames applied (records + snapshots).
# TYPE mpcbfd_replica_frames_total counter
mpcbfd_replica_frames_total 41
# HELP mpcbfd_replica_apply_duration_seconds Latency of applying one replication frame.
# TYPE mpcbfd_replica_apply_duration_seconds histogram
mpcbfd_replica_apply_duration_seconds_bucket{le="1e-09"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="2e-09"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="4e-09"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="8e-09"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="1.6e-08"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="3.2e-08"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="6.4e-08"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="1.28e-07"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="2.56e-07"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="5.12e-07"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="1.024e-06"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="2.048e-06"} 0
mpcbfd_replica_apply_duration_seconds_bucket{le="4.096e-06"} 1
mpcbfd_replica_apply_duration_seconds_bucket{le="8.192e-06"} 1
mpcbfd_replica_apply_duration_seconds_bucket{le="1.6384e-05"} 1
mpcbfd_replica_apply_duration_seconds_bucket{le="3.2768e-05"} 1
mpcbfd_replica_apply_duration_seconds_bucket{le="6.5536e-05"} 1
mpcbfd_replica_apply_duration_seconds_bucket{le="0.000131072"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.000262144"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.000524288"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.001048576"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.002097152"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.004194304"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.008388608"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.016777216"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.033554432"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.067108864"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.134217728"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.268435456"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="0.536870912"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="1.073741824"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="2.147483648"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="4.294967296"} 2
mpcbfd_replica_apply_duration_seconds_bucket{le="+Inf"} 2
mpcbfd_replica_apply_duration_seconds_sum 7.3e-05
mpcbfd_replica_apply_duration_seconds_count 2
`

// clusterClientPromWant is the exposition of
// TestClusterClientPromExposition's counters.
const clusterClientPromWant = `# HELP mpcbf_cluster_requests_total Operations routed to each node.
# TYPE mpcbf_cluster_requests_total counter
mpcbf_cluster_requests_total{node="10.0.0.1:7070"} 100
mpcbf_cluster_requests_total{node="10.0.0.2:7070"} 101
mpcbf_cluster_requests_total{node="10.0.0.3:7070"} 102
# HELP mpcbf_cluster_batches_total Sub-batches fanned out to each node.
# TYPE mpcbf_cluster_batches_total counter
mpcbf_cluster_batches_total{node="10.0.0.1:7070"} 10
mpcbf_cluster_batches_total{node="10.0.0.2:7070"} 11
mpcbf_cluster_batches_total{node="10.0.0.3:7070"} 12
# HELP mpcbf_cluster_batch_keys_total Keys across fanned-out sub-batches, by node.
# TYPE mpcbf_cluster_batch_keys_total counter
mpcbf_cluster_batch_keys_total{node="10.0.0.1:7070"} 640
mpcbf_cluster_batch_keys_total{node="10.0.0.2:7070"} 641
mpcbf_cluster_batch_keys_total{node="10.0.0.3:7070"} 642
# HELP mpcbf_cluster_failovers_total Read attempts that fell past a node's first endpoint.
# TYPE mpcbf_cluster_failovers_total counter
mpcbf_cluster_failovers_total{node="10.0.0.1:7070"} 0
mpcbf_cluster_failovers_total{node="10.0.0.2:7070"} 1
mpcbf_cluster_failovers_total{node="10.0.0.3:7070"} 2
# HELP mpcbf_cluster_maybe_applied_total Mutations interrupted in transit (ErrMaybeApplied), by node.
# TYPE mpcbf_cluster_maybe_applied_total counter
mpcbf_cluster_maybe_applied_total{node="10.0.0.1:7070"} 0
mpcbf_cluster_maybe_applied_total{node="10.0.0.2:7070"} 2
mpcbf_cluster_maybe_applied_total{node="10.0.0.3:7070"} 4
# HELP mpcbf_cluster_ring_epoch Membership descriptor epoch the client routes by.
# TYPE mpcbf_cluster_ring_epoch gauge
mpcbf_cluster_ring_epoch 5
# HELP mpcbf_cluster_ring_joint Whether the client is inside a dual-write (joint) epoch.
# TYPE mpcbf_cluster_ring_joint gauge
mpcbf_cluster_ring_joint 1
`
