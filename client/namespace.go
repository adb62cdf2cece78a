package client

import (
	"time"

	"repro/server/wire"
)

// Namespace admin operations plus the data API every filter shares.
//
// A daemon multiplexes many independent filters keyed by name; every
// data operation can target one of them by wrapping the request in the
// NAMESPACED envelope, and the empty name is the default filter. A
// Handle carries the (connection, namespace, trace) triple and is the
// one implementation of the data API: Client.Namespace and Client.Traced
// derive handles from the Client's own zero handle.

// CreateNamespace creates an independent filter named name on the
// daemon. Zero-valued cfg fields take the daemon's namespace defaults;
// set cfg.WindowNanos (and optionally cfg.Generations) for a sliding-
// window namespace. Creating a name that already exists with the same
// effective configuration succeeds idempotently; with a different
// configuration it fails with *ServerError.
func (c *Client) CreateNamespace(name string, cfg wire.NsConfig) error {
	return c.exec(&wire.Request{Op: wire.OpNsCreate, NS: []byte(name), NsCfg: cfg}, nil)
}

// DropNamespace deletes the named filter and everything in it.
// Dropping a name that does not exist succeeds (idempotent).
func (c *Client) DropNamespace(name string) error {
	return c.exec(&wire.Request{Op: wire.OpNsDrop, NS: []byte(name)}, nil)
}

// ListNamespaces returns the daemon's namespace names, sorted.
func (c *Client) ListNamespaces() ([]string, error) {
	var names []string
	err := c.do(wire.Request{Op: wire.OpNsList}, func(body []byte) (err error) {
		names, err = wire.DecodeNsList(body)
		return err
	})
	if err != nil {
		return nil, err
	}
	return names, nil
}

// NamespaceStats reports one namespace's residency, occupancy, and
// eviction/recovery counters. The empty name reports the default
// filter.
func (c *Client) NamespaceStats(name string) (wire.NsStats, error) {
	var st wire.NsStats
	err := c.exec(&wire.Request{Op: wire.OpNsStats, NS: []byte(name)}, func(body []byte) (err error) {
		st, err = wire.DecodeNsStats(body)
		return err
	})
	return st, err
}

// Handle issues data operations against one filter of a Client's daemon
// — a namespace, or the default filter for the empty name — optionally
// inside a TRACE envelope. It is a value holding no connection state of
// its own: building one per request is free, and every handle on a
// Client shares its connection, serialization, and reconnect policy.
type Handle struct {
	c  *Client
	ns []byte
	tc Trace
}

// Namespace returns a handle whose data operations target the named
// filter. It does not verify the namespace exists; daemons create it
// lazily (with default configuration) on first mutation, and reads of an
// unknown namespace answer empty.
func (h Handle) Namespace(name string) Handle {
	h.ns = []byte(name)
	return h
}

// Traced returns a handle whose every request is wrapped in the TRACE
// envelope carrying tc, so one Client can serve many concurrent traces.
// The zero Trace turns tracing off.
func (h Handle) Traced(tc Trace) Handle {
	h.tc = tc
	return h
}

// do runs one data operation in the handle's namespace and trace; see
// Client.exec.
func (h Handle) do(req wire.Request, dec func([]byte) error) error {
	h.address(&req)
	return h.c.exec(&req, dec)
}

// address points req at the handle's filter and trace.
func (h Handle) address(req *wire.Request) {
	req.NS = h.ns
	h.tc.stamp(req)
}

// Insert adds key. A nil return means the daemon acknowledged the
// mutation under its configured durability policy.
func (h Handle) Insert(key []byte) error {
	return h.do(wire.Request{Op: wire.OpInsert, Key: key}, nil)
}

// Delete removes a previously inserted key.
func (h Handle) Delete(key []byte) error {
	return h.do(wire.Request{Op: wire.OpDelete, Key: key}, nil)
}

// Contains reports whether key may be in the set.
func (h Handle) Contains(key []byte) (bool, error) {
	r, err := h.result(wire.Request{Op: wire.OpContains, Key: key}, nil)
	return r.Bool, err
}

// EstimateCount returns an upper bound on key's multiplicity.
func (h Handle) EstimateCount(key []byte) (int, error) {
	r, err := h.result(wire.Request{Op: wire.OpEstimate, Key: key}, nil)
	return int(r.U64), err
}

// Len returns the filter's current element count.
func (h Handle) Len() (int, error) {
	r, err := h.result(wire.Request{Op: wire.OpLen}, nil)
	return int(r.U64), err
}

// result runs a request answered in a PipeResult shape (a bool, a u64
// or flags) and decodes it as Flush does; flags decode into dst's
// backing array.
func (h Handle) result(req wire.Request, dst []bool) (PipeResult, error) {
	r := PipeResult{Op: req.Op, Bools: dst}
	if err := h.do(req, r.decode); err != nil {
		return PipeResult{}, err
	}
	return r, nil
}

// InsertBatch inserts keys as one request (one WAL commit server-side).
func (h Handle) InsertBatch(keys [][]byte) error {
	return h.do(wire.Request{Op: wire.OpInsertBatch, Keys: keys}, nil)
}

// DeleteBatch deletes keys as one request, returning order-preserving
// flags for which keys were actually removed.
func (h Handle) DeleteBatch(keys [][]byte) ([]bool, error) {
	return h.DeleteBatchInto(keys, nil)
}

// DeleteBatchInto is DeleteBatch decoding into dst's backing array:
// a caller reusing the returned slice across batches stops allocating.
func (h Handle) DeleteBatchInto(keys [][]byte, dst []bool) ([]bool, error) {
	r, err := h.result(wire.Request{Op: wire.OpDeleteBatch, Keys: keys}, dst)
	return r.Bools, err
}

// ContainsBatch answers membership for keys, order-preserving.
func (h Handle) ContainsBatch(keys [][]byte) ([]bool, error) {
	return h.ContainsBatchInto(keys, nil)
}

// ContainsBatchInto is ContainsBatch decoding into dst's backing array:
// a caller reusing the returned slice across batches stops allocating.
func (h Handle) ContainsBatchInto(keys [][]byte, dst []bool) ([]bool, error) {
	r, err := h.result(wire.Request{Op: wire.OpContainsBatch, Keys: keys}, dst)
	return r.Bools, err
}

// InsertTTL inserts key with a per-key lifetime: in a windowed filter
// the key expires no earlier than ttl and no later than the window span,
// at rotation granularity. A non-windowed filter answers with a
// *ServerError.
func (h Handle) InsertTTL(key []byte, ttl time.Duration) error {
	return h.do(wire.Request{Op: wire.OpInsertTTL, Key: key, TTL: uint64(max(ttl, 0))}, nil)
}

// InsertTTLBatch inserts keys sharing one TTL as a single request (one
// WAL commit server-side). Windowed filters only.
func (h Handle) InsertTTLBatch(keys [][]byte, ttl time.Duration) error {
	return h.do(wire.Request{Op: wire.OpInsertTTLBatch, Keys: keys, TTL: uint64(max(ttl, 0))}, nil)
}

// WindowStats reports a windowed filter's generation ring: size, head
// slot, rotation count, span, and per-slot item counts.
func (h Handle) WindowStats() (wire.WindowStats, error) {
	var st wire.WindowStats
	err := h.do(wire.Request{Op: wire.OpWindowStats}, func(body []byte) (err error) {
		st, err = wire.DecodeWindowStats(body)
		return err
	})
	return st, err
}

// Dump fetches a consistent point-in-time binary encoding of the
// filter: ns.DecodeState (repro/server/ns) decodes it as whichever
// state its leading magic names, a plain sharded filter, a window or an
// elastic chain. For the default filter of a daemon holding namespaces
// it is the whole-store container.
// The returned slice is the caller's to keep.
func (h Handle) Dump() ([]byte, error) {
	var blob []byte
	err := h.do(wire.Request{Op: wire.OpDump}, func(body []byte) error {
		blob = append([]byte(nil), body...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return blob, nil
}

// Import hands the daemon a complete marshaled filter (Sharded or an
// elastic chain's encoding) to absorb as frozen generation(s) of this
// elastic filter — the snapshot-transfer half of resharding. The nil
// return means every imported generation is durable on the daemon.
func (h Handle) Import(blob []byte) error {
	return h.do(wire.Request{Op: wire.OpImport, Blob: blob}, nil)
}

// ElasticStats reports an elastic filter's chain shape: generation
// count, growth/import counters, and per-generation fill and FPR
// budget. Non-elastic filters answer with a *ServerError.
func (h Handle) ElasticStats() (wire.ElasticStats, error) {
	var st wire.ElasticStats
	err := h.do(wire.Request{Op: wire.OpElasticStats}, func(body []byte) (err error) {
		st, err = wire.DecodeElasticStats(body)
		return err
	})
	return st, err
}
