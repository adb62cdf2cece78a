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
	return c.doNS(wire.OpNsCreate, []byte(name), nil, nil, 0, cfg, Trace{}, nil)
}

// DropNamespace deletes the named filter and everything in it.
// Dropping a name that does not exist succeeds (idempotent).
func (c *Client) DropNamespace(name string) error {
	return c.doNS(wire.OpNsDrop, []byte(name), nil, nil, 0, wire.NsConfig{}, Trace{}, nil)
}

// ListNamespaces returns the daemon's namespace names, sorted.
func (c *Client) ListNamespaces() ([]string, error) {
	var names []string
	err := c.do(wire.OpNsList, nil, nil, 0, func(body []byte) (err error) {
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
	err := c.doNS(wire.OpNsStats, []byte(name), nil, nil, 0, wire.NsConfig{}, Trace{}, func(body []byte) (err error) {
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
// Client.doNS.
func (h Handle) do(op byte, key []byte, keys [][]byte, ttl uint64, dec func([]byte) error) error {
	return h.c.doNS(op, h.ns, key, keys, ttl, wire.NsConfig{}, h.tc, dec)
}

// Insert adds key. A nil return means the daemon acknowledged the
// mutation under its configured durability policy.
func (h Handle) Insert(key []byte) error {
	return h.do(wire.OpInsert, key, nil, 0, nil)
}

// Delete removes a previously inserted key.
func (h Handle) Delete(key []byte) error {
	return h.do(wire.OpDelete, key, nil, 0, nil)
}

// Contains reports whether key may be in the set.
func (h Handle) Contains(key []byte) (bool, error) {
	var ok bool
	err := h.do(wire.OpContains, key, nil, 0, func(body []byte) (err error) {
		ok, err = wire.DecodeBool(body)
		return err
	})
	return ok, err
}

// EstimateCount returns an upper bound on key's multiplicity.
func (h Handle) EstimateCount(key []byte) (int, error) {
	v, err := h.u64(wire.OpEstimate, key)
	return int(v), err
}

// Len returns the filter's current element count.
func (h Handle) Len() (int, error) {
	v, err := h.u64(wire.OpLen, nil)
	return int(v), err
}

func (h Handle) u64(op byte, key []byte) (uint64, error) {
	var v uint64
	err := h.do(op, key, nil, 0, func(body []byte) (err error) {
		v, err = wire.DecodeU64(body)
		return err
	})
	return v, err
}

// InsertBatch inserts keys as one request (one WAL commit server-side).
func (h Handle) InsertBatch(keys [][]byte) error {
	return h.do(wire.OpInsertBatch, nil, keys, 0, nil)
}

// DeleteBatch deletes keys as one request, returning order-preserving
// flags for which keys were actually removed.
func (h Handle) DeleteBatch(keys [][]byte) ([]bool, error) {
	return h.DeleteBatchInto(keys, nil)
}

// DeleteBatchInto is DeleteBatch decoding into dst's backing array:
// a caller reusing the returned slice across batches stops allocating.
func (h Handle) DeleteBatchInto(keys [][]byte, dst []bool) ([]bool, error) {
	return h.bools(wire.OpDeleteBatch, keys, dst)
}

// ContainsBatch answers membership for keys, order-preserving.
func (h Handle) ContainsBatch(keys [][]byte) ([]bool, error) {
	return h.ContainsBatchInto(keys, nil)
}

// ContainsBatchInto is ContainsBatch decoding into dst's backing array:
// a caller reusing the returned slice across batches stops allocating.
func (h Handle) ContainsBatchInto(keys [][]byte, dst []bool) ([]bool, error) {
	return h.bools(wire.OpContainsBatch, keys, dst)
}

func (h Handle) bools(op byte, keys [][]byte, dst []bool) ([]bool, error) {
	var out []bool
	err := h.do(op, nil, keys, 0, func(body []byte) (err error) {
		out, err = wire.DecodeBoolsInto(body, dst)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InsertTTL inserts key with a per-key lifetime: in a windowed filter
// the key expires no earlier than ttl and no later than the window span,
// at rotation granularity. A non-windowed filter answers with a
// *ServerError.
func (h Handle) InsertTTL(key []byte, ttl time.Duration) error {
	return h.do(wire.OpInsertTTL, key, nil, uint64(max(ttl, 0)), nil)
}

// InsertTTLBatch inserts keys sharing one TTL as a single request (one
// WAL commit server-side). Windowed filters only.
func (h Handle) InsertTTLBatch(keys [][]byte, ttl time.Duration) error {
	return h.do(wire.OpInsertTTLBatch, nil, keys, uint64(max(ttl, 0)), nil)
}

// WindowStats reports a windowed filter's generation ring: size, head
// slot, rotation count, span, and per-slot item counts.
func (h Handle) WindowStats() (wire.WindowStats, error) {
	var st wire.WindowStats
	err := h.do(wire.OpWindowStats, nil, nil, 0, func(body []byte) (err error) {
		st, err = wire.DecodeWindowStats(body)
		return err
	})
	return st, err
}

// Dump fetches a consistent point-in-time binary encoding of the
// filter (decode with repro.UnmarshalSharded, or window.UnmarshalFilter
// when window.IsWindowed reports a windowed encoding). For the default
// filter of a daemon holding namespaces it is the whole-store container.
// The returned slice is the caller's to keep.
func (h Handle) Dump() ([]byte, error) {
	var blob []byte
	err := h.do(wire.OpDump, nil, nil, 0, func(body []byte) error {
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
	return h.do(wire.OpImport, blob, nil, 0, nil)
}

// ElasticStats reports an elastic filter's chain shape: generation
// count, growth/import counters, and per-generation fill and FPR
// budget. Non-elastic filters answer with a *ServerError.
func (h Handle) ElasticStats() (wire.ElasticStats, error) {
	var st wire.ElasticStats
	err := h.do(wire.OpElasticStats, nil, nil, 0, func(body []byte) (err error) {
		st, err = wire.DecodeElasticStats(body)
		return err
	})
	return st, err
}
