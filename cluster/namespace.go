package cluster

import (
	"errors"
	"sort"
	"sync"

	"repro/client"
	"repro/internal/hashing"
	"repro/server/wire"
)

// Namespace-aware routing. A namespaced key routes on (namespace, key):
// each node's rendezvous seed is XORed with a hash of the namespace
// name, so two tenants' identical keys can land on different nodes and
// one tenant's keyspace spreads over the whole cluster independently of
// every other's. The empty namespace hashes to 0 — an XOR identity —
// so the default filter's placement is bit-for-bit the pre-namespace
// router's: introducing namespaces moves no existing key.

// nsRouteSalt seeds the namespace-name hash. Any fixed odd constant
// works; what matters is that every cluster client derives the same
// per-namespace seed from the same topology.
const nsRouteSalt = 0xc2b2ae3d27d4eb4f

// nsSeed returns the routing-seed perturbation for a namespace name
// (0 for the default namespace).
func nsSeed(ns []byte) uint64 {
	if len(ns) == 0 {
		return 0
	}
	return hashing.XXHash64(ns, nsRouteSalt)
}

// eachPrimary runs fn against the primary of every node in nodes
// concurrently and joins the errors: all-or-error, so callers never
// mistake a partial cluster answer for a complete one. Admin ops pass
// c.members(): during a joint epoch the incoming membership is
// included, since an admin op must reach a node that is about to start
// owning keys.
func (c *Client) eachPrimary(nodes []*node, fn func(n *node, cl *client.Client) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(nodes))
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			n.requests.Add(1)
			cl, err := n.primaryClient()
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(n, cl)
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// CreateNamespace creates the namespace on every node's primary: a
// namespaced keyspace spans the whole cluster, so the filter must exist
// everywhere before any node can own a share of it. Idempotent per node
// (re-creating with the same configuration succeeds); any node failing
// fails the call, and already-created nodes keep the namespace — retry
// until clean.
func (c *Client) CreateNamespace(name string, cfg wire.NsConfig) error {
	return c.eachPrimary(c.members(), func(n *node, cl *client.Client) error {
		err := cl.CreateNamespace(name, cfg)
		n.noteMutation(err)
		return err
	})
}

// DropNamespace drops the namespace on every node's primary. Dropping
// an unknown name is a per-node no-op, so a partially failed drop can
// be retried until every node agrees.
func (c *Client) DropNamespace(name string) error {
	return c.eachPrimary(c.members(), func(n *node, cl *client.Client) error {
		err := cl.DropNamespace(name)
		n.noteMutation(err)
		return err
	})
}

// ListNamespaces returns the sorted union of every primary's namespace
// list. With healthy Create/Drop the lists agree; after a partial admin
// failure the union is the superset to reconcile against.
func (c *Client) ListNamespaces() ([]string, error) {
	var mu sync.Mutex
	seen := map[string]bool{}
	err := c.eachPrimary(c.members(), func(n *node, cl *client.Client) error {
		names, err := cl.ListNamespaces()
		if err != nil {
			return err
		}
		mu.Lock()
		for _, name := range names {
			seen[name] = true
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// NamespaceStats merges the namespace's per-node stats into a cluster
// view: items, memory, and eviction/recovery counters sum; Resident and
// Windowed report whether ANY node holds the namespace resident /
// windowed.
func (c *Client) NamespaceStats(name string) (wire.NsStats, error) {
	var mu sync.Mutex
	var out wire.NsStats
	err := c.eachPrimary(c.members(), func(n *node, cl *client.Client) error {
		st, err := cl.NamespaceStats(name)
		if err != nil {
			return err
		}
		mu.Lock()
		out.Resident = out.Resident || st.Resident
		out.Windowed = out.Windowed || st.Windowed
		out.Items += st.Items
		out.MemoryBits += st.MemoryBits
		out.Evictions += st.Evictions
		out.Recoveries += st.Recoveries
		mu.Unlock()
		return nil
	})
	if err != nil {
		return wire.NsStats{}, err
	}
	return out, nil
}
