// Package cluster builds a multi-node deployment out of mpcbfd pieces:
// Replica keeps a local store in sync with a primary by consuming its
// WAL stream, and Client routes keys across independent primaries by
// rendezvous hashing, reading from replicas with failover.
package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/prom"
	"repro/server"
	"repro/server/wire"
)

// ReplicaConfig tunes a WAL-shipping subscriber.
type ReplicaConfig struct {
	// PrimaryAddr is the primary daemon's binary-protocol address.
	PrimaryAddr string
	// Store is the local replica-mode store (StoreOptions.Replica true).
	Store *server.Store
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// BackoffBase / BackoffMax bound the reconnect backoff (default
	// 100ms doubling to 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// StallTimeout declares the stream dead when no frame (heartbeats
	// included) arrives for this long (default 30s).
	StallTimeout time.Duration
	// MaxFrame bounds one stream frame (default 256 MiB — a snapshot
	// frame carries the whole marshaled filter).
	MaxFrame int
	// Log receives structured operational messages (default
	// slog.Default()). The replica logs with component=replica attached.
	Log *slog.Logger
}

func (c *ReplicaConfig) setDefaults() error {
	if c.PrimaryAddr == "" {
		return errors.New("cluster: ReplicaConfig.PrimaryAddr required")
	}
	if c.Store == nil {
		return errors.New("cluster: ReplicaConfig.Store required")
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = 1 << 28
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	c.Log = c.Log.With("component", "replica", "primary", c.PrimaryAddr)
	return nil
}

// Replica consumes a primary's replication stream into a local store.
// Run drives the connect/consume/backoff loop until its context ends;
// the store itself serves reads (through a read-only server.Server or
// directly) the whole time.
type Replica struct {
	cfg ReplicaConfig

	connected  atomic.Bool
	bootstraps atomic.Uint64 // snapshot bootstraps consumed
	frames     atomic.Uint64 // stream frames applied (records + snapshots)
	lagRecords atomic.Uint64 // primary cum records - local, per last frame
	lagBytes   atomic.Uint64
	lagNanos   atomic.Int64 // time lag per the last stamped frame, see noteTimeLag
	lastFrame  atomic.Int64 // unix nanos of the last frame, 0 = never

	applyHist server.Histogram // latency of applying one non-heartbeat frame
}

// NewReplica validates cfg and returns an idle Replica; call Run to
// start syncing.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return &Replica{cfg: cfg}, nil
}

// Run connects to the primary and applies its stream until ctx ends,
// redialing with bounded exponential backoff on any failure. It returns
// ctx.Err() (or nil after a clean shutdown of the store).
func (r *Replica) Run(ctx context.Context) error {
	backoff := r.cfg.BackoffBase
	for {
		err := r.stream(ctx)
		r.connected.Store(false)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.cfg.Log.Warn("replication stream ended; reconnecting", "error", err, "backoff", backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > r.cfg.BackoffMax {
			backoff = r.cfg.BackoffMax
		}
		if r.lastFrameWithin(backoff) {
			// The last connection made progress; start the next one eager.
			backoff = r.cfg.BackoffBase
		}
	}
}

func (r *Replica) lastFrameWithin(d time.Duration) bool {
	ns := r.lastFrame.Load()
	return ns != 0 && time.Since(time.Unix(0, ns)) < d
}

// stream runs one connection: subscribe from the store's durable
// position, then apply frames until an error or ctx cancellation.
func (r *Replica) stream(ctx context.Context) error {
	d := net.Dialer{Timeout: r.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", r.cfg.PrimaryAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Unblock the read below when ctx ends mid-stream.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()

	seq, off := r.cfg.Store.ReplicationPos()
	conn.SetWriteDeadline(time.Now().Add(r.cfg.DialTimeout))
	sub := wire.AppendRequest(nil, &wire.Request{Op: wire.OpReplicate, Seq: seq, Off: uint64(off)})
	if err := wire.WriteFrame(conn, sub); err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})

	br := bufio.NewReaderSize(conn, 1<<16)
	var buf []byte
	for {
		conn.SetReadDeadline(time.Now().Add(r.cfg.StallTimeout))
		payload, err := wire.ReadFrame(br, buf, r.cfg.MaxFrame)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return errors.New("primary closed the stream")
			}
			return fmt.Errorf("stream read: %w", err)
		}
		buf = payload[:0]
		if len(payload) > 0 && payload[0] == wire.StatusErr {
			if _, body, derr := wire.DecodeStatus(payload); derr == nil {
				return fmt.Errorf("primary refused: %s", body)
			}
			return errors.New("primary refused the subscription")
		}
		frame, err := wire.DecodeRepFrame(payload)
		if err != nil {
			return fmt.Errorf("stream frame: %w", err)
		}
		if err := r.apply(frame); err != nil {
			return err
		}
	}
}

// apply dispatches one decoded stream frame into the store.
func (r *Replica) apply(f wire.RepFrame) error {
	switch f.Type {
	case wire.RepSnapshot:
		t0 := time.Now()
		if err := r.cfg.Store.ReplicaBootstrap(f.Seq, f.CumRecords, f.CumBytes, f.Data); err != nil {
			return fmt.Errorf("bootstrap: %w", err)
		}
		r.applyHist.ObserveDuration(time.Since(t0))
		r.bootstraps.Add(1)
		r.frames.Add(1)
		r.cfg.Log.Info("snapshot bootstrap applied", "seq", f.Seq, "bytes", len(f.Data), "took", time.Since(t0))
	case wire.RepRecords:
		t0 := time.Now()
		if err := r.cfg.Store.ReplicaApply(f.Seq, int64(f.Off), f.NumRecords, f.Data); err != nil {
			// A desync is not fatal to the replica: reconnecting
			// resubscribes from the durable position and the primary
			// re-decides (usually a bootstrap).
			return fmt.Errorf("apply: %w", err)
		}
		r.applyHist.ObserveDuration(time.Since(t0))
		r.frames.Add(1)
	case wire.RepHeartbeat:
		// Position-only: nothing to apply, lag bookkeeping below.
	default:
		return fmt.Errorf("unknown stream frame type 0x%02x", f.Type)
	}
	r.noteLag(f.CumRecords, f.CumBytes)
	r.noteTimeLag(f.SentUnixNanos)
	r.connected.Store(true)
	r.lastFrame.Store(time.Now().UnixNano())
	return nil
}

// noteLag records how far the local mirror trails the primary's
// cumulative counters as advertised on the frame. Baselines align at
// bootstrap; after replica-local restarts the record count can drift
// slightly (it is a gauge, not an invariant).
func (r *Replica) noteLag(primRecords, primBytes uint64) {
	locRecords, locBytes := r.cfg.Store.WALCum()
	r.lagRecords.Store(sub64(primRecords, locRecords))
	r.lagBytes.Store(sub64(primBytes, locBytes))
}

func sub64(a, b uint64) uint64 {
	if a <= b {
		return 0
	}
	return a - b
}

// noteTimeLag records replication lag in time: the interval between the
// primary stamping a frame (heartbeats included) and the replica fully
// applying it. Because heartbeats keep flowing on an idle stream, a
// quiesced but healthy pair converges to ≈ 0 s — unlike the byte/record
// lag gauges, which cannot distinguish "caught up" from "nothing ever
// written". Frames from pre-stamp primaries (SentUnixNanos 0) are
// skipped, and clock skew that would make the lag negative clamps to 0
// rather than reporting time travel.
func (r *Replica) noteTimeLag(sentUnixNanos uint64) {
	if sentUnixNanos == 0 {
		return
	}
	lag := time.Now().UnixNano() - int64(sentUnixNanos)
	if lag < 0 {
		lag = 0
	}
	r.lagNanos.Store(lag)
}

// ReplicaStats is a point-in-time view of a Replica's sync state.
type ReplicaStats struct {
	Connected  bool      `json:"connected"`
	Bootstraps uint64    `json:"bootstraps"`
	Frames     uint64    `json:"frames"`
	LagRecords uint64    `json:"lag_records"` // records behind the primary, per the last frame
	LagBytes   uint64    `json:"lag_bytes"`   // WAL bytes behind the primary, per the last frame
	LagSeconds float64   `json:"lag_seconds"` // stamp-to-apply delay of the last stamped frame
	LastFrame  time.Time `json:"last_frame"`

	ApplyNs server.HistSnapshot `json:"apply_ns"` // per-frame apply latency
}

// Stats returns the current sync state.
func (r *Replica) Stats() ReplicaStats {
	st := ReplicaStats{
		Connected:  r.connected.Load(),
		Bootstraps: r.bootstraps.Load(),
		Frames:     r.frames.Load(),
		LagRecords: r.lagRecords.Load(),
		LagBytes:   r.lagBytes.Load(),
		LagSeconds: time.Duration(r.lagNanos.Load()).Seconds(),
	}
	if ns := r.lastFrame.Load(); ns != 0 {
		st.LastFrame = time.Unix(0, ns)
	}
	st.ApplyNs = r.applyHist.Snapshot()
	return st
}

// Ready reports whether the replica has applied at least one stream
// frame since start — the readiness gate for its read-only server: a
// replica that has never heard from the primary would serve arbitrarily
// stale (possibly empty) state.
func (r *Replica) Ready() bool { return r.lastFrame.Load() != 0 }

// WriteProm appends the replica-side replication gauges to a Prometheus
// exposition — plug the Replica into server.Config.Extra on the
// read-only server fronting the same store.
func (r *Replica) WriteProm(w io.Writer) {
	st := r.Stats()
	prom.Gauge(w, "mpcbfd_replica_connected", "Whether the replication stream is live.", prom.Bool(st.Connected))
	prom.Gauge(w, "mpcbfd_replica_lag_records", "Records behind the primary, per the last stream frame.", st.LagRecords)
	prom.Gauge(w, "mpcbfd_replica_lag_bytes", "WAL bytes behind the primary, per the last stream frame.", st.LagBytes)
	prom.Gauge(w, "mpcbfd_replica_lag_seconds", "Stamp-to-apply delay of the last stamped frame; ≈0 on an idle healthy pair.", st.LagSeconds)
	prom.Counter(w, "mpcbfd_replica_bootstraps_total", "Snapshot bootstraps consumed.", st.Bootstraps)
	prom.Counter(w, "mpcbfd_replica_frames_total", "Stream frames applied (records + snapshots).", st.Frames)
	st.ApplyNs.WritePromSeconds(w, "mpcbfd_replica_apply_duration_seconds", "Latency of applying one replication frame.")
}

// Vars returns the same state as WriteProm for the expvar document —
// the server.StatsSource pair.
func (r *Replica) Vars() map[string]any {
	return map[string]any{"replica": r.Stats()}
}
