package cluster

import (
	"fmt"
	"testing"
)

// TestNamespaceRoutingIdentity pins the compatibility contract of
// namespace-aware routing: the default (empty) namespace perturbs the
// rendezvous seed by the XOR identity, so introducing namespaces moves
// not a single pre-existing key.
func TestNamespaceRoutingIdentity(t *testing.T) {
	c, err := NewClient(ClientConfig{Nodes: []Node{
		{Primary: "10.0.0.1:4171"},
		{Primary: "10.0.0.2:4171"},
		{Primary: "10.0.0.3:4171"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := nsSeed(nil)
	if h != 0 {
		t.Fatalf("nsSeed(default) = %#x, want 0", h)
	}
	def := c.Namespace("")
	for i := 0; i < 10000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if got, want := routeIn(c.nodes, def.nsH, key), routeIn(c.nodes, 0, key); got != want {
			t.Fatalf("key %q: Namespace(\"\") routes to node %d, the default filter to node %d", key, got, want)
		}
	}
}

// TestNamespaceRoutingSpreads checks that distinct namespaces place the
// same key independently: across many keys, at least some must land on
// different nodes under different namespace seeds (a collapsed seed
// would silently pile every tenant onto one placement).
func TestNamespaceRoutingSpreads(t *testing.T) {
	c, err := NewClient(ClientConfig{Nodes: []Node{
		{Primary: "10.0.0.1:4171"},
		{Primary: "10.0.0.2:4171"},
		{Primary: "10.0.0.3:4171"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := nsSeed([]byte("tenant-a")), nsSeed([]byte("tenant-b"))
	if ha == hb || ha == 0 || hb == 0 {
		t.Fatalf("namespace seeds not independent: a=%#x b=%#x", ha, hb)
	}
	moved := 0
	for i := 0; i < 10000; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if routeIn(c.nodes, ha, key) != routeIn(c.nodes, hb, key) {
			moved++
		}
	}
	// With 3 nodes, independent placements differ for ~2/3 of keys;
	// anything clearly above zero proves independence without flaking.
	if moved < 1000 {
		t.Fatalf("only %d/10000 keys placed differently across namespaces", moved)
	}
}
