package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/cluster/reshard"
	"repro/server"
	"repro/server/wire"
)

// TestReshardRefusesNamespaces: resharding moves only the default
// filter, so Add and Remove refuse a cluster in which a node holds a
// namespace, before any node's ring moves.
func TestReshardRefusesNamespaces(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		opts := primaryStoreOpts(t)
		opts.Elastic = true
		store, err := server.OpenStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		_, addrs[i] = startServer(t, store, server.Config{Log: discardLog()})
	}
	a, b := addrs[0], addrs[1]
	cls := make([]*client.Client, len(addrs))
	for i, addr := range addrs {
		cl, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cls[i] = cl
	}
	if err := cls[0].CreateNamespace("tenant", wire.NsConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := cls[0].Insert([]byte("default-key")); err != nil {
		t.Fatal(err)
	}

	co := reshard.New(reshard.Config{PropagationDelay: time.Millisecond})
	defer co.Close()
	for _, tc := range []struct {
		name string
		run  func() (*reshard.Report, error)
	}{
		{"add", func() (*reshard.Report, error) { return co.Add([]string{a}, b) }},
		{"remove", func() (*reshard.Report, error) { return co.Remove([]string{a, b}, b) }},
	} {
		if _, err := tc.run(); err == nil || !strings.Contains(err.Error(), "holds 1 namespace") {
			t.Fatalf("%s with a namespace on %s: err = %v, want a refusal naming the namespace", tc.name, a, err)
		}
		for i, cl := range cls {
			r, err := cl.RingGet()
			if err != nil {
				t.Fatal(err)
			}
			if r.Epoch != 0 {
				t.Fatalf("after refused %s: %s at ring epoch %d, want 0 (no ring pushed)", tc.name, addrs[i], r.Epoch)
			}
		}
	}
}
