// Package reshard coordinates zero-downtime membership changes for a
// cluster of elastic mpcbfd primaries: adding a primary to (or removing
// one from) a live rendezvous ring while concurrent writers keep every
// acked insert and readers stay correct throughout.
//
// The protocol is a two-epoch switch driven entirely through the wire
// protocol — the daemons hold no membership logic beyond storing and
// republishing ring descriptors (RING_SET/RING_GET):
//
//  1. Joint epoch (dual-write window). The coordinator pushes
//     Ring{Epoch: E+1, Joint: true, Old: current, New: target} to every
//     node of both memberships. Clients polling the ring adopt it and
//     start writing moving keys under BOTH memberships (ack-both),
//     reading both and ORing, while deletes stay on the Old side.
//  2. Snapshot transfer. After PropagationDelay — which must exceed
//     every client's ring-poll interval, or a straggler could write a
//     moving key single-homed after the dump below — the coordinator
//     DUMPs each donor primary and IMPORTs the blob into the receiving
//     node. The daemon absorbs each import as frozen generations of its
//     elastic chain, and the IMPORT ack is the durable watermark: the
//     records are fsync'd under the node's WAL policy before the OK.
//  3. Cutover. Once every import is acked, the coordinator pushes the
//     stable Ring{Epoch: E+2, Joint: false, Old: target, New: target}.
//     Clients converge on single-homed routing over the new membership.
//
// A dump deliberately over-transfers: the receiving node absorbs the
// donor's whole filter, not just the keys remapping to it. Keys that
// stay put leave benign counting-filter residue on the receiver —
// possible extra false positives, never a false negative — which is
// the price of moving state as O(memory) frozen generations instead of
// enumerating keys (a Bloom filter cannot enumerate its keys at all).
//
// Only the default filter moves. A run refuses, before it pushes any
// ring, when a node of either membership holds a namespace.
//
// Every step is idempotent or monotonic: pushing a ring twice is a
// no-op (nodes adopt only newer epochs), and a failed run can be
// retried — the worst a crashed coordinator leaves behind is a cluster
// in a joint epoch, which is safe (dual-write costs latency, not
// correctness) until a retry completes the cutover.
package reshard

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/client"
	"repro/server/wire"
)

// Config tunes a Coordinator.
type Config struct {
	// Timeout bounds each wire round trip (default 30s — an IMPORT
	// ships a whole marshaled filter and fsyncs it before answering).
	Timeout time.Duration
	// PropagationDelay is how long the coordinator waits after pushing
	// the joint ring before taking dumps. It must exceed every client's
	// ring-poll interval (default 2s).
	PropagationDelay time.Duration
	// Log receives progress events; nil discards them.
	Log *slog.Logger
}

// Transfer records one donor-to-receiver snapshot movement.
type Transfer struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Bytes int    `json:"bytes"`
}

// Report describes a completed membership change.
type Report struct {
	JointEpoch  uint64        `json:"joint_epoch"`
	StableEpoch uint64        `json:"stable_epoch"`
	Old         []string      `json:"old"`
	New         []string      `json:"new"`
	Transfers   []Transfer    `json:"transfers"`
	Duration    time.Duration `json:"duration"`
}

// Coordinator drives membership changes. It is not safe for concurrent
// use — one resharding operation at a time is the point.
type Coordinator struct {
	cfg   Config
	conns map[string]*client.Client
}

// New returns a Coordinator; connections are dialed lazily.
func New(cfg Config) *Coordinator {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.PropagationDelay <= 0 {
		cfg.PropagationDelay = 2 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	return &Coordinator{cfg: cfg, conns: map[string]*client.Client{}}
}

// Close closes every connection the coordinator dialed.
func (co *Coordinator) Close() error {
	var first error
	for _, cl := range co.conns {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	co.conns = map[string]*client.Client{}
	return first
}

func (co *Coordinator) conn(addr string) (*client.Client, error) {
	if cl, ok := co.conns[addr]; ok {
		return cl, nil
	}
	cl, err := client.Dial(addr,
		client.WithTimeout(co.cfg.Timeout),
		client.WithReconnect(0, 0, 0),
		// An elastic chain can exceed the default response frame.
		client.WithMaxFrame(1<<30))
	if err != nil {
		return nil, fmt.Errorf("reshard: dial %s: %w", addr, err)
	}
	co.conns[addr] = cl
	return cl, nil
}

// baseEpoch returns the highest ring epoch any of the nodes holds, so
// a repeated or resumed reshard always moves forward. It refuses when
// any node holds a namespace, before anything is pushed: a transfer
// moves only the default filter (DUMP of it is the namespace container
// once a namespace exists, which IMPORT refuses), and routing never
// remaps namespaced keys, so after a cutover the moved ones would read
// absent.
func (co *Coordinator) baseEpoch(nodes []string) (uint64, error) {
	var base uint64
	for _, addr := range nodes {
		cl, err := co.conn(addr)
		if err != nil {
			return 0, err
		}
		names, err := cl.ListNamespaces()
		if err != nil {
			return 0, fmt.Errorf("reshard: ns_list %s: %w", addr, err)
		}
		if len(names) > 0 {
			return 0, fmt.Errorf("reshard: %s holds %d namespace(s), e.g. %q; resharding moves only the default filter", addr, len(names), names[0])
		}
		r, err := cl.RingGet()
		if err != nil {
			return 0, fmt.Errorf("reshard: ring_get %s: %w", addr, err)
		}
		if r.Epoch > base {
			base = r.Epoch
		}
	}
	return base, nil
}

// push installs the ring descriptor on every node; all must ack.
func (co *Coordinator) push(nodes []string, r wire.Ring) error {
	for _, addr := range nodes {
		cl, err := co.conn(addr)
		if err != nil {
			return err
		}
		if err := cl.RingSet(r); err != nil {
			return fmt.Errorf("reshard: ring_set %s: %w", addr, err)
		}
	}
	co.cfg.Log.Info("ring pushed", "epoch", r.Epoch, "joint", r.Joint, "nodes", len(nodes))
	return nil
}

// transfer dumps the donor and imports the blob into the receiver,
// returning the transfer record once the receiver's durable ack lands.
func (co *Coordinator) transfer(from, to string) (Transfer, error) {
	fc, err := co.conn(from)
	if err != nil {
		return Transfer{}, err
	}
	blob, err := fc.Dump()
	if err != nil {
		return Transfer{}, fmt.Errorf("reshard: dump %s: %w", from, err)
	}
	tc, err := co.conn(to)
	if err != nil {
		return Transfer{}, err
	}
	if err := tc.Import(blob); err != nil {
		return Transfer{}, fmt.Errorf("reshard: import %s -> %s: %w", from, to, err)
	}
	co.cfg.Log.Info("snapshot transferred", "from", from, "to", to, "bytes", len(blob))
	return Transfer{From: from, To: to, Bytes: len(blob)}, nil
}

// run executes the joint-push / transfer / stable-push sequence shared
// by Add and Remove. union is old ∪ new (the push audience), transfers
// the donor→receiver pairs.
func (co *Coordinator) run(union, old, new []string, pairs [][2]string) (*Report, error) {
	start := time.Now()
	base, err := co.baseEpoch(union)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		JointEpoch:  base + 1,
		StableEpoch: base + 2,
		Old:         append([]string(nil), old...),
		New:         append([]string(nil), new...),
	}
	joint := wire.Ring{Epoch: rep.JointEpoch, Joint: true, Old: old, New: new}
	if err := co.push(union, joint); err != nil {
		return nil, err
	}
	time.Sleep(co.cfg.PropagationDelay)
	for _, p := range pairs {
		tr, err := co.transfer(p[0], p[1])
		if err != nil {
			return nil, err
		}
		rep.Transfers = append(rep.Transfers, tr)
	}
	stable := wire.Ring{Epoch: rep.StableEpoch, Joint: false, Old: new, New: new}
	if err := co.push(union, stable); err != nil {
		return nil, err
	}
	rep.Duration = time.Since(start)
	co.cfg.Log.Info("reshard complete",
		"joint_epoch", rep.JointEpoch, "stable_epoch", rep.StableEpoch,
		"transfers", len(rep.Transfers), "duration", rep.Duration)
	return rep, nil
}

// Add grows the ring: newNode joins the membership formed by current.
// Every current primary's filter is dumped and imported into newNode —
// whichever keys remap to it are covered, and clients route to it only
// after its last import is durably acked.
func (co *Coordinator) Add(current []string, newNode string) (*Report, error) {
	if len(current) == 0 {
		return nil, errors.New("reshard: no current membership")
	}
	for _, addr := range current {
		if addr == newNode {
			return nil, fmt.Errorf("reshard: %s is already a member", newNode)
		}
	}
	target := append(append([]string(nil), current...), newNode)
	pairs := make([][2]string, 0, len(current))
	for _, donor := range current {
		pairs = append(pairs, [2]string{donor, newNode})
	}
	return co.run(target, current, target, pairs)
}

// Remove shrinks the ring: departing leaves the membership formed by
// current. Its keys remap across every remaining primary, so its dump
// is imported into each of them before cutover; the departing node can
// be decommissioned once Remove returns.
func (co *Coordinator) Remove(current []string, departing string) (*Report, error) {
	if len(current) < 2 {
		return nil, errors.New("reshard: cannot remove the last member")
	}
	remaining := make([]string, 0, len(current)-1)
	found := false
	for _, addr := range current {
		if addr == departing {
			found = true
			continue
		}
		remaining = append(remaining, addr)
	}
	if !found {
		return nil, fmt.Errorf("reshard: %s is not a member", departing)
	}
	pairs := make([][2]string, 0, len(remaining))
	for _, receiver := range remaining {
		pairs = append(pairs, [2]string{departing, receiver})
	}
	return co.run(current, current, remaining, pairs)
}
