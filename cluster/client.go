package cluster

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/hashing"
	"repro/internal/prom"
	"repro/server/wire"
)

// Node names one shard of the cluster: a primary that owns writes for
// its key range and any number of read replicas.
type Node struct {
	Primary  string
	Replicas []string
}

// ClientConfig describes a static cluster topology plus per-connection
// tuning. Routing is rendezvous (highest-random-weight) hashing over
// the primaries: each key scores every node with
// XXHash64(key, seed(primary)) and goes to the highest score, so nodes
// can be listed in any order and removing one only remaps its own keys.
type ClientConfig struct {
	Nodes []Node
	// Timeout bounds each request round trip (default 10s).
	Timeout time.Duration
	// ReconnectAttempts / BackoffBase / BackoffMax configure the
	// per-connection auto-reconnect (defaults 3, 50ms, 2s). Reads retry
	// transparently; interrupted mutations surface
	// client.ErrMaybeApplied.
	ReconnectAttempts int
	BackoffBase       time.Duration
	BackoffMax        time.Duration
}

// Client routes single-key and batch operations across the cluster.
// Its data operations are those of its zero Handle: the default
// filter, untraced. Safe for concurrent use.
//
// Routing is governed by a ring descriptor (wire.Ring) the client
// adopts whenever it sees a newer epoch — via UpdateRing, PollRing, or
// StartRingPoll. The initial membership is the configured primaries at
// epoch 0. During a joint (dual-write) epoch a default-filter mutation
// goes to the key's owner under BOTH memberships and acks only when
// both succeed, reads OR both owners, and deletes stay on the
// pre-change side (the authoritative population until cutover) so a
// counting filter is never decremented for a key one side never held;
// namespaces stay on the pre-change side (see Handle.sides).
type Client struct {
	Handle

	cfg ClientConfig

	mu     sync.Mutex       // guards nodes/byAddr growth on ring adoption
	nodes  []*node          // every node ever known, append-only
	byAddr map[string]*node // primary address -> node

	ring atomic.Pointer[ringView]
}

// ringView resolves a ring descriptor's address lists to live nodes.
// On a stable ring old and new hold the same membership.
type ringView struct {
	epoch uint64
	joint bool
	old   []*node // membership before the change
	new   []*node // membership after the change
}

// rendezvousSalt seeds the per-node score-stream hash; see NewClient.
const rendezvousSalt = 0x9e3779b97f4a7c15

// node is one shard's connection state: addresses, their rendezvous
// seed, and lazily dialed connections.
type node struct {
	cfg      *ClientConfig
	primary  string
	replicas []string
	seed     uint64

	mu       sync.Mutex
	primaryC *client.Client
	replicaC []*client.Client
	rr       uint64 // round-robin cursor over replicas

	// Routing counters, atomic so Snapshot never blocks requests.
	requests     atomic.Uint64 // operations routed to this node
	batches      atomic.Uint64 // sub-batches fanned out to this node
	batchKeys    atomic.Uint64 // keys across those sub-batches
	failovers    atomic.Uint64 // read attempts past the first endpoint
	maybeApplied atomic.Uint64 // mutations that returned ErrMaybeApplied
}

// noteMutation tallies an ErrMaybeApplied outcome for the node.
func (n *node) noteMutation(err error) {
	if errors.Is(err, client.ErrMaybeApplied) {
		n.maybeApplied.Add(1)
	}
}

// NewClient validates the topology. Connections are dialed lazily, so a
// node that is down at construction time only fails operations routed
// to it.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	c := &Client{cfg: cfg, byAddr: map[string]*node{}}
	c.Handle = Handle{c: c}
	for _, n := range cfg.Nodes {
		if n.Primary == "" {
			return nil, errors.New("cluster: node with empty primary address")
		}
		if c.byAddr[n.Primary] != nil {
			return nil, fmt.Errorf("cluster: duplicate primary %s", n.Primary)
		}
		nd := &node{
			cfg:      &c.cfg,
			primary:  n.Primary,
			replicas: append([]string(nil), n.Replicas...),
			// Seeding the score hash with a hash of the address makes the
			// per-node score streams independent; the key's placement is a
			// pure function of (key, set of primary addresses).
			seed: hashing.XXHash64([]byte(n.Primary), rendezvousSalt),
		}
		c.byAddr[n.Primary] = nd
		c.nodes = append(c.nodes, nd)
	}
	c.ring.Store(&ringView{old: c.nodes, new: c.nodes})
	return c, nil
}

// allNodes returns a stable copy of every node ever known — for
// Close/Snapshot, which must cover nodes a past ring introduced.
func (c *Client) allNodes() []*node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*node(nil), c.nodes...)
}

// members returns the union of both ring sides — the set admin
// operations must reach so an incoming node is not skipped during the
// joint window.
func (c *Client) members() []*node {
	v := c.ring.Load()
	if !v.joint {
		return v.new
	}
	out := append([]*node(nil), v.old...)
	for _, n := range v.new {
		found := false
		for _, o := range v.old {
			if o == n {
				found = true
				break
			}
		}
		if !found {
			out = append(out, n)
		}
	}
	return out
}

// UpdateRing offers a ring descriptor; the client adopts it iff the
// epoch is newer than the view it routes by, and reports whether it
// did. Unseen addresses get fresh nodes (primaries only — a ring
// carries no replica topology); addresses present in both views keep
// their connections.
func (c *Client) UpdateRing(r wire.Ring) (bool, error) {
	if len(r.Old) == 0 || len(r.New) == 0 {
		return false, errors.New("cluster: ring with an empty membership side")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := c.ring.Load(); r.Epoch <= cur.epoch {
		return false, nil
	}
	c.ring.Store(&ringView{
		epoch: r.Epoch,
		joint: r.Joint,
		old:   c.sideLocked(r.Old),
		new:   c.sideLocked(r.New),
	})
	return true, nil
}

// sideLocked resolves one ring side's addresses to nodes, creating
// nodes for addresses the client has never routed to. Callers hold
// c.mu.
func (c *Client) sideLocked(addrs []string) []*node {
	out := make([]*node, 0, len(addrs))
	for _, a := range addrs {
		n := c.byAddr[a]
		if n == nil {
			n = &node{cfg: &c.cfg, primary: a, seed: hashing.XXHash64([]byte(a), rendezvousSalt)}
			c.byAddr[a] = n
			c.nodes = append(c.nodes, n)
		}
		out = append(out, n)
	}
	return out
}

// Ring returns the descriptor the client currently routes by. Epoch 0
// is the configured bootstrap membership.
func (c *Client) Ring() wire.Ring {
	v := c.ring.Load()
	r := wire.Ring{Epoch: v.epoch, Joint: v.joint}
	for _, n := range v.old {
		r.Old = append(r.Old, n.primary)
	}
	for _, n := range v.new {
		r.New = append(r.New, n.primary)
	}
	return r
}

// PollRing asks every known node for its ring descriptor and adopts
// the newest. Unreachable nodes and nodes predating the RING ops are
// skipped, so polling a cluster that never resharded is a no-op.
// Reports whether a newer ring was adopted.
func (c *Client) PollRing() bool {
	var newest wire.Ring
	for _, n := range c.allNodes() {
		cl, err := n.primaryClient()
		if err != nil {
			continue
		}
		r, err := cl.RingGet()
		if err != nil {
			continue
		}
		if r.Epoch > newest.Epoch {
			newest = r
		}
	}
	if newest.Epoch == 0 {
		return false
	}
	adopted, _ := c.UpdateRing(newest)
	return adopted
}

// StartRingPoll polls the cluster's ring at interval on a background
// goroutine — the push path for live resharding. Call the returned
// function to stop; it is idempotent.
func (c *Client) StartRingPoll(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.PollRing()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Close closes every open connection.
func (c *Client) Close() error {
	var first error
	for _, n := range c.allNodes() {
		n.mu.Lock()
		if n.primaryC != nil {
			if err := n.primaryC.Close(); err != nil && first == nil {
				first = err
			}
		}
		for _, rc := range n.replicaC {
			if rc != nil {
				if err := rc.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		n.mu.Unlock()
	}
	return first
}

// routeIn returns the index within side of the node owning key under
// the namespace seed perturbation nsH (0 for the default namespace).
func routeIn(side []*node, nsH uint64, key []byte) int {
	best, bestScore := 0, uint64(0)
	for i, n := range side {
		if s := hashing.XXHash64(key, n.seed^nsH); i == 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// mutate runs one mutation against the node's primary through h's
// filter and trace, tallying the routing counters.
func (n *node) mutate(h Handle, fn func(client.Handle) error) error {
	n.requests.Add(1)
	cl, err := n.primaryClient()
	if err != nil {
		return err
	}
	err = fn(h.on(cl))
	n.noteMutation(err)
	return err
}

func (n *node) dialOpts() []client.Option {
	return []client.Option{
		client.WithTimeout(n.cfg.Timeout),
		client.WithReconnect(n.cfg.ReconnectAttempts, n.cfg.BackoffBase, n.cfg.BackoffMax),
	}
}

// primaryClient returns the node's primary connection, dialing it on
// first use.
func (n *node) primaryClient() (*client.Client, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.primaryC == nil {
		cl, err := client.Dial(n.primary, n.dialOpts()...)
		if err != nil {
			return nil, fmt.Errorf("cluster: dial primary %s: %w", n.primary, err)
		}
		n.primaryC = cl
	}
	return n.primaryC, nil
}

// readClients returns the connections to try for a read, in order: each
// replica once starting from the round-robin cursor, then the primary.
// Unreachable replicas are skipped (their slot redials on a later
// read).
func (n *node) readClients() []*client.Client {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*client.Client, 0, len(n.replicas)+1)
	if len(n.replicas) > 0 {
		start := int(n.rr % uint64(len(n.replicas)))
		n.rr++
		for i := 0; i < len(n.replicas); i++ {
			slot := (start + i) % len(n.replicas)
			if n.replicaC == nil {
				n.replicaC = make([]*client.Client, len(n.replicas))
			}
			if n.replicaC[slot] == nil {
				cl, err := client.Dial(n.replicas[slot], n.dialOpts()...)
				if err != nil {
					continue
				}
				n.replicaC[slot] = cl
			}
			out = append(out, n.replicaC[slot])
		}
	}
	if n.primaryC == nil {
		if cl, err := client.Dial(n.primary, n.dialOpts()...); err == nil {
			n.primaryC = cl
		}
	}
	if n.primaryC != nil {
		out = append(out, n.primaryC)
	}
	return out
}

// read runs op against the node's read set through h's filter and
// trace, failing over on transport errors. Operation-level errors
// (ServerError) are authoritative and returned as-is.
func (n *node) read(h Handle, op func(client.Handle) error) error {
	n.requests.Add(1)
	clients := n.readClients()
	if len(clients) == 0 {
		return fmt.Errorf("cluster: no reachable endpoint for node %s", n.primary)
	}
	var last error
	for i, cl := range clients {
		if i > 0 {
			n.failovers.Add(1)
		}
		err := op(h.on(cl))
		if err == nil {
			return nil
		}
		var se *client.ServerError
		if errors.As(err, &se) {
			return err
		}
		last = err
	}
	return last
}

// WindowStats collects the sliding-window state of every node's
// primary, keyed by primary address. Fails if any node is unreachable
// or not serving a windowed store, so callers never mistake a partial
// view for the whole cluster.
func (c *Client) WindowStats() (map[string]wire.WindowStats, error) {
	nodes, _ := c.sides()
	var mu sync.Mutex
	out := make(map[string]wire.WindowStats, len(nodes))
	err := c.eachPrimary(nodes, func(n *node, cl *client.Client) error {
		st, err := cl.WindowStats()
		if err != nil {
			return err
		}
		mu.Lock()
		out[n.primary] = st
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// stitch scatters one node's order-preserving flags back to the input
// positions recorded by fanOut. Disjoint index sets per pass-and-node
// make the concurrent writes race-free (the OR pass of a joint-epoch
// ContainsBatch runs after the first pass completed).
func stitch(out []bool, idx []int, flags []bool, primary string, or bool) error {
	if len(flags) != len(idx) {
		return fmt.Errorf("cluster: node %s answered %d flags for %d keys", primary, len(flags), len(idx))
	}
	for i, pos := range idx {
		if or {
			out[pos] = out[pos] || flags[i]
		} else {
			out[pos] = flags[i]
		}
	}
	return nil
}

// NodeStats is a point-in-time view of one node's routing counters plus
// the per-connection stats of every dialed endpoint.
type NodeStats struct {
	Primary      string `json:"primary"`
	Requests     uint64 `json:"requests"`
	Batches      uint64 `json:"batches"`
	BatchKeys    uint64 `json:"batch_keys"`
	Failovers    uint64 `json:"failovers"`
	MaybeApplied uint64 `json:"maybe_applied"`

	// Endpoint connection counters, keyed by address; only endpoints
	// dialed so far appear.
	Endpoints map[string]client.Stats `json:"endpoints,omitempty"`
}

// ClientStats is a point-in-time view of the cluster client's routing.
type ClientStats struct {
	// RingEpoch and RingJoint describe the membership descriptor the
	// client routes by (epoch 0 = configured bootstrap membership).
	RingEpoch uint64      `json:"ring_epoch"`
	RingJoint bool        `json:"ring_joint"`
	Nodes     []NodeStats `json:"nodes"`
}

// Snapshot returns per-node routing and connection counters.
func (c *Client) Snapshot() ClientStats {
	nodes := c.allNodes()
	v := c.ring.Load()
	st := ClientStats{
		RingEpoch: v.epoch,
		RingJoint: v.joint,
		Nodes:     make([]NodeStats, 0, len(nodes)),
	}
	for _, n := range nodes {
		ns := NodeStats{
			Primary:      n.primary,
			Requests:     n.requests.Load(),
			Batches:      n.batches.Load(),
			BatchKeys:    n.batchKeys.Load(),
			Failovers:    n.failovers.Load(),
			MaybeApplied: n.maybeApplied.Load(),
		}
		n.mu.Lock()
		if n.primaryC != nil {
			ns.Endpoints = map[string]client.Stats{n.primary: n.primaryC.Stats()}
		}
		for i, rc := range n.replicaC {
			if rc == nil {
				continue
			}
			if ns.Endpoints == nil {
				ns.Endpoints = map[string]client.Stats{}
			}
			ns.Endpoints[n.replicas[i]] = rc.Stats()
		}
		n.mu.Unlock()
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// WriteProm appends the cluster client's routing counters to a
// Prometheus exposition, labeled by owning primary — for embedding
// mpcbfd consumers into their own /metrics.
func (c *Client) WriteProm(w io.Writer) {
	st := c.Snapshot()
	emit := func(name, help string, val func(ns NodeStats) uint64) {
		prom.Family(w, name, "counter", help, "node", len(st.Nodes), func(i int) (string, uint64) {
			return st.Nodes[i].Primary, val(st.Nodes[i])
		})
	}
	emit("mpcbf_cluster_requests_total", "Operations routed to each node.",
		func(ns NodeStats) uint64 { return ns.Requests })
	emit("mpcbf_cluster_batches_total", "Sub-batches fanned out to each node.",
		func(ns NodeStats) uint64 { return ns.Batches })
	emit("mpcbf_cluster_batch_keys_total", "Keys across fanned-out sub-batches, by node.",
		func(ns NodeStats) uint64 { return ns.BatchKeys })
	emit("mpcbf_cluster_failovers_total", "Read attempts that fell past a node's first endpoint.",
		func(ns NodeStats) uint64 { return ns.Failovers })
	emit("mpcbf_cluster_maybe_applied_total", "Mutations interrupted in transit (ErrMaybeApplied), by node.",
		func(ns NodeStats) uint64 { return ns.MaybeApplied })
	prom.Gauge(w, "mpcbf_cluster_ring_epoch", "Membership descriptor epoch the client routes by.", st.RingEpoch)
	prom.Gauge(w, "mpcbf_cluster_ring_joint", "Whether the client is inside a dual-write (joint) epoch.", prom.Bool(st.RingJoint))
}
