package cluster

import (
	"errors"
	"sync"
	"time"

	"repro/client"
)

// Handle issues data operations against one filter across the cluster
// — a namespace, or the default filter for the empty name — optionally
// carrying a trace context into every request it sends. It is the one
// implementation of the cluster's data API: Client's data methods are
// those of its zero handle (default filter, untraced), and Namespace
// and Traced derive handles from it, as client.Handle does for one
// daemon. A handle is a value holding no state of its own: building one
// per request is free, and every handle on a Client shares its nodes,
// connections, ring and routing counters. Safe for concurrent use.
//
// Batches are split per owning node, fanned out concurrently, and
// re-stitched in input order; each node's sub-batch is atomic, the
// whole batch is not. Reads prefer replicas (round-robin) and fail over
// to the primary; writes always go to the primary.
type Handle struct {
	c   *Client
	ns  string
	nsH uint64 // routing-seed perturbation of ns; see nsSeed
	tc  client.Trace
}

// Namespace returns a handle whose data operations target the named
// filter, routed on (namespace, key) so one tenant's keys spread over
// every node. It does not verify the namespace exists; see
// Client.CreateNamespace.
func (h Handle) Namespace(name string) Handle {
	h.ns, h.nsH = name, nsSeed([]byte(name))
	return h
}

// Traced returns a handle whose operations all carry the trace context
// tc. Every sub-batch of a fanned-out batch is sent inside a TRACE
// envelope bearing the same trace id, so the /debug/traces rings of
// every node that handled part of the batch hold spans with that id —
// the mpcbf-trace stitcher joins them back into one fan-out tree.
// Create one context per logical operation with client.NewTrace; the
// zero Trace turns tracing off.
func (h Handle) Traced(tc client.Trace) Handle {
	h.tc = tc
	return h
}

// on returns the handle for this handle's filter and trace on one node
// connection. The empty name and the zero trace add no envelope, so the
// default filter's requests keep their bytes.
func (h Handle) on(cl *client.Client) client.Handle {
	return cl.Namespace(h.ns).Traced(h.tc)
}

// sides returns the membership holding the handle's keys and, only for
// the default filter inside a joint epoch, the membership they are
// moving to (nil otherwise). It is the joint-epoch rule in one place:
// mutations and reads also reach a key's owner under to when that
// differs, while deletes, Len and the first read pass use from alone —
// the pre-change side is the authoritative population until cutover.
// Namespaces route single-homed even during a joint epoch: resharding
// transfers only the default filter (importing a namespace container is
// refused), so namespaced keyspaces move only with an explicit
// per-tenant migration.
func (h Handle) sides() (from, to []*node) {
	v := h.c.ring.Load()
	switch {
	case !v.joint:
		return v.new, nil
	case h.ns != "":
		return v.old, nil
	}
	return v.old, v.new
}

// owners returns the node holding key and, when key is moving in a
// joint epoch, its owner under the incoming membership.
func (h Handle) owners(key []byte) (o, dual *node) {
	from, to := h.sides()
	o = from[routeIn(from, h.nsH, key)]
	if to != nil {
		if n := to[routeIn(to, h.nsH, key)]; n != o {
			dual = n
		}
	}
	return o, dual
}

// write runs a single-key mutation on key's owner and then, ack-both,
// on its incoming owner when key is moving.
func (h Handle) write(key []byte, fn func(client.Handle) error) error {
	o, dual := h.owners(key)
	if err := o.mutate(h, fn); err != nil || dual == nil {
		return err
	}
	return dual.mutate(h, fn)
}

// fanOut splits keys by owner within side and runs send once per node
// owning a non-empty share, concurrently, counting the node's batches
// and batch keys; it joins the errors. send gets its share's input
// positions for stitch. pos is nil for a batch's first pass; the second
// pass of a joint epoch sends a subset of the input and pos maps it back.
// send's again reports that second pass.
func (h Handle) fanOut(side []*node, keys [][]byte, pos []int, send func(n *node, sub [][]byte, idx []int, again bool) error) error {
	perNode := make([][][]byte, len(side))
	perIdx := make([][]int, len(side))
	for i, key := range keys {
		j := routeIn(side, h.nsH, key)
		if pos != nil {
			i = pos[i]
		}
		perNode[j] = append(perNode[j], key)
		perIdx[j] = append(perIdx[j], i)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(side))
	for j, sub := range perNode {
		if len(sub) == 0 {
			continue
		}
		n := side[j]
		n.batches.Add(1)
		n.batchKeys.Add(uint64(len(sub)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[j] = send(n, sub, perIdx[j], pos != nil)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// batch fans keys out over the membership holding them and then, once
// that pass succeeded, sends the keys moving in a joint epoch to their
// incoming owners.
func (h Handle) batch(keys [][]byte, send func(n *node, sub [][]byte, idx []int, again bool) error) error {
	from, to := h.sides()
	if err := h.fanOut(from, keys, nil, send); err != nil || to == nil {
		return err
	}
	var moving [][]byte
	var pos []int
	for i, key := range keys {
		if from[routeIn(from, h.nsH, key)] != to[routeIn(to, h.nsH, key)] {
			moving, pos = append(moving, key), append(pos, i)
		}
	}
	return h.fanOut(to, moving, pos, send)
}

// Insert adds key on its owning primary — on both owners, ack-both,
// during a joint epoch. A joint-window error means the insert may be
// present on one side only; as with client.ErrMaybeApplied, blindly
// retrying can double-count.
func (h Handle) Insert(key []byte) error {
	return h.write(key, func(cl client.Handle) error { return cl.Insert(key) })
}

// InsertTTL adds key on its owning primary with a time-to-live (on
// both owners during a joint epoch). The filter must be windowed.
func (h Handle) InsertTTL(key []byte, ttl time.Duration) error {
	return h.write(key, func(cl client.Handle) error { return cl.InsertTTL(key, ttl) })
}

// Delete removes key on its owning primary. During a joint epoch
// deletes stay on the pre-change owner: it is the authoritative
// population until cutover, and decrementing a counter the incoming
// side never incremented would corrupt it. A key dual-written during
// the window may leave a residual count on the incoming side — benign
// Bloom residue (possible false positive, never a false negative).
func (h Handle) Delete(key []byte) error {
	o, _ := h.owners(key)
	return o.mutate(h, func(cl client.Handle) error { return cl.Delete(key) })
}

// Contains answers membership from the owning node's read set. During
// a joint epoch both owners are consulted and the answers ORed: a key
// written before the window lives only on the pre-change side, one
// written during it on both.
func (h Handle) Contains(key []byte) (bool, error) {
	o, dual := h.owners(key)
	var ok bool
	ask := func(cl client.Handle) (err error) { ok, err = cl.Contains(key); return err }
	err := o.read(h, ask)
	if err == nil && !ok && dual != nil {
		err = dual.read(h, ask)
	}
	return ok, err
}

// EstimateCount returns the multiplicity upper bound from the owning
// node's read set — the max over both owners during a joint epoch
// (dual-written keys count on both sides; max never double-counts).
func (h Handle) EstimateCount(key []byte) (int, error) {
	o, dual := h.owners(key)
	var v int
	ask := func(cl client.Handle) (err error) { v, err = cl.EstimateCount(key); return err }
	if err := o.read(h, ask); err != nil || dual == nil {
		return v, err
	}
	first := v
	err := dual.read(h, ask)
	return max(first, v), err
}

// Len sums the filter's element counts over the nodes holding its keys.
// Keys are partitioned by the routing, so the sum is the cluster
// population; the incoming side of a joint epoch is excluded because
// its dual-written and imported keys would double-count.
func (h Handle) Len() (int, error) {
	from, _ := h.sides()
	total := 0
	for _, n := range from {
		var v int
		if err := n.read(h, func(cl client.Handle) (err error) { v, err = cl.Len(); return err }); err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// InsertBatch inserts keys, split per owning primary and fanned out
// concurrently. On error some nodes' sub-batches may have been applied
// and others not. During a joint epoch, keys whose ownership is moving
// are written under both memberships and the batch acks only when both
// sides did.
func (h Handle) InsertBatch(keys [][]byte) error {
	return h.batch(keys, func(n *node, sub [][]byte, _ []int, _ bool) error {
		return n.mutate(h, func(cl client.Handle) error { return cl.InsertBatch(sub) })
	})
}

// InsertTTLBatch inserts keys with a shared time-to-live, split per
// owning primary like InsertBatch (including joint-epoch dual-write).
func (h Handle) InsertTTLBatch(keys [][]byte, ttl time.Duration) error {
	return h.batch(keys, func(n *node, sub [][]byte, _ []int, _ bool) error {
		return n.mutate(h, func(cl client.Handle) error { return cl.InsertTTLBatch(sub, ttl) })
	})
}

// DeleteBatch deletes keys across the cluster and re-stitches the
// per-key removal flags in input order. During a joint epoch deletes
// stay on the pre-change membership; see Delete.
func (h Handle) DeleteBatch(keys [][]byte) ([]bool, error) {
	from, _ := h.sides()
	out := make([]bool, len(keys))
	err := h.fanOut(from, keys, nil, func(n *node, sub [][]byte, idx []int, _ bool) error {
		var flags []bool
		if err := n.mutate(h, func(cl client.Handle) (err error) { flags, err = cl.DeleteBatch(sub); return err }); err != nil {
			return err
		}
		return stitch(out, idx, flags, n.primary, false)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ContainsBatch answers membership for keys across the cluster,
// re-stitched in input order. Each node's sub-batch goes to its read
// set with failover. During a joint epoch, keys whose ownership is
// moving are also asked of their incoming owner and the flags ORed.
func (h Handle) ContainsBatch(keys [][]byte) ([]bool, error) {
	out := make([]bool, len(keys))
	err := h.batch(keys, func(n *node, sub [][]byte, idx []int, again bool) error {
		var flags []bool
		if err := n.read(h, func(cl client.Handle) (err error) { flags, err = cl.ContainsBatch(sub); return err }); err != nil {
			return err
		}
		return stitch(out, idx, flags, n.primary, again)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
