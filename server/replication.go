package server

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/server/wire"
)

// Replication: a REPLICATE request turns its connection into a one-way
// push stream of the primary's WAL. The streamer tails the segment files
// directly — the same CRC-framed bytes recovery replays — shipping
// chunks that always end on a record boundary, so a subscriber can
// append them verbatim to identically numbered local segments. When the
// subscriber's position is unavailable (segments pruned, position in the
// future or mid-record), the streamer falls back to a snapshot
// bootstrap: a fresh snapshot is taken (rotating the WAL) and the
// marshaled filter shipped, after which the stream continues from byte 0
// of the new live segment. While the subscriber is caught up, periodic
// heartbeats advertise the primary's end position so the subscriber can
// see a zero lag rather than silence.

// replChunk bounds one RECORDS frame's raw payload. It exceeds the
// largest legal WAL record, so a chunk that scans to zero complete
// records despite unread segment bytes signals corruption or a
// misaligned offset, never a too-small buffer.
const replChunk = wireMaxWALRecord + walRecordHeader

// replSub is one connected subscriber, tracked for the metrics gauges.
type replSub struct {
	remote string
	seq    atomic.Uint64 // shipped-through segment
	off    atomic.Int64  // shipped-through byte offset
}

// ReplicationStats is a point-in-time view of the primary's subscriber
// set.
type ReplicationStats struct {
	Connected   int   `json:"connected"`
	MaxLagBytes int64 `json:"max_lag_bytes"` // furthest-behind subscriber, in WAL bytes
}

// ReplicationStats reports the connected-subscriber count and the worst
// subscriber lag, computed from positions and segment file sizes. Lag
// is measured against the WAL's logical end, pending bytes included, so
// a scrape never runs a commit round; with no subscriber it reads
// nothing.
func (s *Server) ReplicationStats() ReplicationStats {
	var st ReplicationStats
	var liveSeq uint64
	var liveSize int64
	s.subs.Range(func(k, _ any) bool {
		sub := k.(*replSub)
		if st.Connected == 0 {
			liveSeq, liveSize = s.store.ReplicationPos()
		}
		st.Connected++
		if lag := s.subLagBytes(sub, liveSeq, liveSize); lag > st.MaxLagBytes {
			st.MaxLagBytes = lag
		}
		return true
	})
	return st
}

// subLagBytes computes how many WAL bytes a subscriber's shipped
// position trails the WAL's logical end: exact within one segment, and
// summed over the intervening segment files otherwise.
func (s *Server) subLagBytes(sub *replSub, liveSeq uint64, liveSize int64) int64 {
	seq, off := sub.seq.Load(), sub.off.Load()
	if seq == 0 || seq > liveSeq {
		return 0
	}
	if seq == liveSeq {
		if lag := liveSize - off; lag > 0 {
			return lag
		}
		return 0
	}
	lag := liveSize - off // off into its own segment cancels below
	for q := seq; q < liveSeq; q++ {
		if fi, err := os.Stat(walPath(s.store.opts.Dir, q)); err == nil {
			lag += fi.Size()
		}
	}
	if lag < 0 {
		return 0
	}
	return lag
}

// serveReplication runs the push stream for one subscriber until the
// peer hangs up, the server shuts down, or a write fails.
func (s *Server) serveReplication(conn net.Conn, w *bufio.Writer, req wire.Request) {
	if s.store.opts.Replica {
		s.writeRepErr(conn, w, "replication from a replica is not supported; subscribe to the primary")
		return
	}
	sub := &replSub{remote: conn.RemoteAddr().String()}
	s.subs.Store(sub, struct{}{})
	defer s.subs.Delete(sub)

	// A subscriber never writes after its request; a readable byte (or
	// EOF, or the deadline Shutdown sets to wake blocked readers) means
	// the stream is over.
	conn.SetReadDeadline(time.Time{})
	connDead := make(chan struct{})
	go func() {
		var b [1]byte
		conn.Read(b[:])
		close(connDead)
	}()

	var (
		seq           = req.Seq
		off           = int64(req.Off)
		raw           = make([]byte, replChunk)
		payload       []byte
		segFile       *os.File
		segFileSeq    uint64
		lastHeartbeat time.Time
	)
	defer func() {
		if segFile != nil {
			segFile.Close()
		}
	}()
	closeSeg := func() {
		if segFile != nil {
			segFile.Close()
			segFile = nil
		}
	}
	bootstrap := func() bool {
		closeSeg()
		data, newSeq, cumR, cumB, err := s.store.ReplicationSnapshot()
		if err != nil {
			s.cfg.Log.Warn("replication bootstrap failed", "remote", sub.remote, "error", err)
			s.writeRepErr(conn, w, "bootstrap failed: "+err.Error())
			return false
		}
		payload = wire.AppendRepSnapshot(payload[:0], newSeq, cumR, cumB, data)
		if !s.writeRepFrame(conn, w, payload) {
			return false
		}
		seq, off = newSeq, 0
		sub.seq.Store(seq)
		sub.off.Store(0)
		return true
	}

	for {
		select {
		case <-connDead:
			return
		case <-s.stop:
			return
		default:
		}

		// Take the change channel before sampling the position: an append
		// that lands after the sample closes this channel, so the wait
		// below can never sleep through it.
		changed := s.store.WALChanged()
		liveSeq, liveSize, err := s.store.WALFlushedPos()
		if err != nil {
			return // store closing
		}

		if seq > liveSeq || (seq == liveSeq && off > liveSize) {
			// Position in the future: the subscriber's history diverged
			// (e.g. it outlived a primary restart that lost unsynced
			// records).
			if !bootstrap() {
				return
			}
			continue
		}

		limit := liveSize
		if seq < liveSeq {
			fi, err := os.Stat(walPath(s.store.opts.Dir, seq))
			if err != nil {
				// Pruned beneath the subscriber: too far behind.
				if !bootstrap() {
					return
				}
				continue
			}
			limit = fi.Size()
		}

		if off < limit {
			if segFile == nil || segFileSeq != seq {
				closeSeg()
				segFile, err = os.Open(walPath(s.store.opts.Dir, seq))
				if err != nil {
					if !bootstrap() {
						return
					}
					continue
				}
				segFileSeq = seq
			}
			want := limit - off
			if want > int64(len(raw)) {
				want = int64(len(raw))
			}
			n, err := segFile.ReadAt(raw[:want], off)
			if err != nil && n == 0 {
				if !bootstrap() {
					return
				}
				continue
			}
			// Ship only whole records: the subscriber CRC-validates every
			// frame, so a cut record would read as corruption there.
			count, valid, _ := scanRecords(bytes.NewReader(raw[:n]), func(byte, []byte) error { return nil })
			if valid == 0 {
				// A full-size chunk holds at least one legal record, so
				// nothing parseable means a corrupt segment or misaligned
				// offset.
				if !bootstrap() {
					return
				}
				continue
			}
			cumR, cumB := s.store.WALCum()
			payload = wire.AppendRepRecords(payload[:0], seq, uint64(off), cumR, cumB, uint32(count), raw[:valid])
			if !s.writeRepFrame(conn, w, payload) {
				return
			}
			off += valid
			sub.seq.Store(seq)
			sub.off.Store(off)
			continue
		}

		if seq < liveSeq {
			// Finished a closed segment; the next one continues the
			// stream (rotation never skips a number; a pruned successor
			// is caught by the Stat above).
			seq, off = seq+1, 0
			continue
		}

		// Caught up: heartbeat, then wait for the next append.
		if time.Since(lastHeartbeat) >= s.cfg.HeartbeatEvery {
			cumR, cumB := s.store.WALCum()
			payload = wire.AppendRepHeartbeat(payload[:0], liveSeq, uint64(liveSize), cumR, cumB, uint64(time.Now().UnixNano()))
			if !s.writeRepFrame(conn, w, payload) {
				return
			}
			lastHeartbeat = time.Now()
		}
		timer := time.NewTimer(s.cfg.HeartbeatEvery)
		select {
		case <-changed:
		case <-timer.C:
		case <-connDead:
			timer.Stop()
			return
		case <-s.stop:
			timer.Stop()
			return
		}
		timer.Stop()
	}
}

// writeRepFrame sends one stream frame under the write deadline.
func (s *Server) writeRepFrame(conn net.Conn, w *bufio.Writer, payload []byte) bool {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := wire.WriteFrame(w, payload); err != nil {
		return false
	}
	if err := w.Flush(); err != nil {
		return false
	}
	s.metrics.AddBytes(0, 4+len(payload))
	return true
}

// writeRepErr best-effort reports a stream-level failure before hanging
// up. The leading StatusErr byte is disjoint from the frame-type bytes,
// so subscribers decode it unambiguously.
func (s *Server) writeRepErr(conn net.Conn, w *bufio.Writer, msg string) {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := wire.WriteFrame(w, wire.AppendErr(nil, msg)); err == nil {
		w.Flush()
	}
}
