package server

import (
	"crypto/sha256"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/server/wire"
	"repro/window"
)

// TestDispatchTranscript sends every opcode to the default filter and to
// named namespaces — plain, windowed, elastic, lazily created, evicted,
// dropped, unknown and invalid — on a plain, a windowed and an elastic
// store, and requires the responses to match
// testdata/dispatch-transcript/<mode>.golden, recorded before the default
// filter became namespace "". ERR responses and any response up to 96
// bytes are pinned verbatim; a longer one (a DUMP, a batch answer) by its
// length and SHA-256.
func TestDispatchTranscript(t *testing.T) {
	for _, mode := range []string{"plain", "window", "elastic"} {
		t.Run(mode, func(t *testing.T) {
			got := strings.Split(dispatchTranscript(t, mode), "\n")
			want := strings.Split(string(readFixture(t, filepath.Join("testdata", "dispatch-transcript"), mode+".golden")), "\n")
			for i := 0; i < len(got) || i < len(want); i++ {
				var g, w string
				if i < len(got) {
					g = got[i]
				}
				if i < len(want) {
					w = want[i]
				}
				if g != w {
					t.Fatalf("transcript line %d:\n got %s\nwant %s", i+1, g, w)
				}
			}
		})
	}
}

// dispatchTranscript runs the transcript's request sequence against a
// fresh store of the given mode and renders one line per response.
func dispatchTranscript(t *testing.T, mode string) string {
	t.Helper()
	s, err := OpenStore(pinnedModeOptions(t.TempDir(), mode))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := New(s, Config{Log: discardLog()}, nil)
	var out strings.Builder
	sendTo := func(srv *Server, label, name string, req wire.Request) []byte {
		resp := pinSend(t, srv, name, req)
		if len(resp) <= 96 || resp[0] != wire.StatusOK {
			fmt.Fprintf(&out, "%s\t%q\n", label, resp)
		} else {
			fmt.Fprintf(&out, "%s\t%d bytes sha256 %x\n", label, len(resp), sha256.Sum256(resp))
		}
		return resp
	}
	send := func(label, name string, req wire.Request) []byte { return sendTo(srv, label, name, req) }
	key := func(op byte, k string) wire.Request { return wire.Request{Op: op, Key: []byte(k)} }
	batch := func(op byte, keys [][]byte) wire.Request { return wire.Request{Op: op, Keys: keys} }
	evict := func(name string) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.reg.Evict(s.reg.Lookup([]byte(name))); err != nil {
			t.Fatal(err)
		}
	}

	win, err := window.New(window.Options{Span: time.Hour, Generations: 2, Filter: pinnedModeOptions("", "").Filter, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	winBlob, err := win.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		cfg  wire.NsConfig
	}{
		{"t-plain", wire.NsConfig{MemoryBits: 1 << 14, ExpectedItems: 300, Shards: 2}},
		{"t-win", wire.NsConfig{MemoryBits: 1 << 13, ExpectedItems: 200, Shards: 2, WindowNanos: uint64(time.Hour), Generations: 3}},
		{"t-el", wire.NsConfig{MemoryBits: 1 << 12, ExpectedItems: 100, Shards: 2, Flags: wire.NsFlagElastic}},
	} {
		send("ns_create "+c.name, "", wire.Request{Op: wire.OpNsCreate, NS: []byte(c.name), NsCfg: c.cfg})
	}

	for _, name := range []string{"", "t-plain", "t-win", "t-el", "t-lazy"} {
		p := func(op string) string { return fmt.Sprintf("%s %q", op, name) }
		k := func(s string) string { return name + "/" + s }
		send(p("insert"), name, key(wire.OpInsert, k("a")))
		send(p("insert"), name, key(wire.OpInsert, k("b")))
		send(p("insert again"), name, key(wire.OpInsert, k("a")))
		send(p("delete"), name, key(wire.OpDelete, k("b")))
		send(p("delete absent"), name, key(wire.OpDelete, k("absent")))
		send(p("contains"), name, key(wire.OpContains, k("a")))
		send(p("contains absent"), name, key(wire.OpContains, k("absent")))
		send(p("estimate"), name, key(wire.OpEstimate, k("a")))
		send(p("len"), name, wire.Request{Op: wire.OpLen})
		keys := storeKeys(k("batch"), 40)
		send(p("insert_batch"), name, batch(wire.OpInsertBatch, keys))
		send(p("delete_batch"), name, batch(wire.OpDeleteBatch, [][]byte{keys[0], []byte(k("absent"))}))
		send(p("contains_batch"), name, batch(wire.OpContainsBatch, append(keys[:8:8], []byte(k("absent")))))
		send(p("insert_ttl"), name, wire.Request{Op: wire.OpInsertTTL, Key: []byte(k("ttl")), TTL: uint64(10 * time.Minute)})
		send(p("insert_ttl overflowing"), name, wire.Request{Op: wire.OpInsertTTL, Key: []byte(k("ttl-max")), TTL: math.MaxUint64})
		send(p("insert_ttl_batch"), name, wire.Request{Op: wire.OpInsertTTLBatch, Keys: storeKeys(k("ttl"), 5), TTL: uint64(40 * time.Minute)})
		send(p("window_stats"), name, wire.Request{Op: wire.OpWindowStats})
		send(p("import"), name, wire.Request{Op: wire.OpImport, Blob: pinBlob(t, k("import"))})
		send(p("import windowed"), name, wire.Request{Op: wire.OpImport, Blob: winBlob})
		send(p("import garbage"), name, wire.Request{Op: wire.OpImport, Blob: []byte("garbage")})
		send(p("elastic_stats"), name, wire.Request{Op: wire.OpElasticStats})
		send(p("bulk insert_batch"), name, batch(wire.OpInsertBatch, storeKeys(k("bulk"), 700)))
		send(p("elastic_stats after bulk"), name, wire.Request{Op: wire.OpElasticStats})
		send(p("len after bulk"), name, wire.Request{Op: wire.OpLen})
		send(p("contains_batch after bulk"), name, batch(wire.OpContainsBatch, storeKeys(k("bulk"), 64)))
		send(p("ns_stats"), "", wire.Request{Op: wire.OpNsStats, NS: []byte(name)})
		send(p("dump"), name, wire.Request{Op: wire.OpDump})
	}

	if mode == "window" {
		rotateForTest(t, s, "")
		rotateForTest(t, s, "t-win")
		for _, name := range []string{"", "t-win"} {
			send(fmt.Sprintf("window_stats %q after rotation", name), name, wire.Request{Op: wire.OpWindowStats})
			send(fmt.Sprintf("contains %q after rotation", name), name, key(wire.OpContains, name+"/ttl"))
		}
	}

	// Evicted namespaces: NS_STATS and LEN read without recovering;
	// ELASTIC_STATS, like the data ops, recovers on touch.
	evict("t-plain")
	evict("t-el")
	send(`ns_stats "t-plain" evicted`, "", wire.Request{Op: wire.OpNsStats, NS: []byte("t-plain")})
	send(`len "t-plain" evicted`, "t-plain", wire.Request{Op: wire.OpLen})
	send(`elastic_stats "t-el" evicted`, "t-el", wire.Request{Op: wire.OpElasticStats})
	send(`contains "t-plain" evicted`, "t-plain", key(wire.OpContains, "t-plain/a"))
	send(`ns_stats "t-plain" recovered`, "", wire.Request{Op: wire.OpNsStats, NS: []byte("t-plain")})
	send(`contains_batch "t-el" evicted`, "t-el", batch(wire.OpContainsBatch, storeKeys("t-el/batch", 8)))
	send(`elastic_stats "t-el" recovered`, "t-el", wire.Request{Op: wire.OpElasticStats})

	// Reads of a namespace that does not exist answer empty or fail;
	// TTL and IMPORT never create one.
	unknown := "t-unknown"
	send("contains unknown", unknown, key(wire.OpContains, "x"))
	send("estimate unknown", unknown, key(wire.OpEstimate, "x"))
	send("len unknown", unknown, wire.Request{Op: wire.OpLen})
	send("contains_batch unknown", unknown, batch(wire.OpContainsBatch, storeKeys("x", 5)))
	send("dump unknown", unknown, wire.Request{Op: wire.OpDump})
	send("window_stats unknown", unknown, wire.Request{Op: wire.OpWindowStats})
	send("elastic_stats unknown", unknown, wire.Request{Op: wire.OpElasticStats})
	send("ns_stats unknown", "", wire.Request{Op: wire.OpNsStats, NS: []byte(unknown)})
	send("import unknown", unknown, wire.Request{Op: wire.OpImport, Blob: pinBlob(t, "x")})
	send("insert_ttl unknown", unknown, wire.Request{Op: wire.OpInsertTTL, Key: []byte("x"), TTL: uint64(time.Minute)})
	send("insert_ttl_batch unknown", unknown, wire.Request{Op: wire.OpInsertTTLBatch, Keys: storeKeys("x", 3), TTL: uint64(time.Minute)})

	// Invalid names fail the request, never the connection.
	long := strings.Repeat("n", wire.MaxNamespaceLen+1)
	send("contains invalid name", "bad name", key(wire.OpContains, "x"))
	send("insert invalid name", "bad/name", key(wire.OpInsert, "x"))
	send("insert over-long name", long, key(wire.OpInsert, "x"))
	send("ns_create invalid name", "", wire.Request{Op: wire.OpNsCreate, NS: []byte("bad name")})
	send("ns_drop invalid name", "", wire.Request{Op: wire.OpNsDrop, NS: []byte("bad name")})
	send("ns_stats invalid name", "", wire.Request{Op: wire.OpNsStats, NS: []byte("bad name")})

	// Admin ops.
	send("ns_list", "", wire.Request{Op: wire.OpNsList})
	send(`ns_create ""`, "", wire.Request{Op: wire.OpNsCreate})
	send(`ns_drop ""`, "", wire.Request{Op: wire.OpNsDrop})
	send("ns_create same config", "", wire.Request{Op: wire.OpNsCreate, NS: []byte("t-plain"), NsCfg: wire.NsConfig{MemoryBits: 1 << 14, ExpectedItems: 300, Shards: 2}})
	send("ns_create conflicting config", "", wire.Request{Op: wire.OpNsCreate, NS: []byte("t-plain"), NsCfg: wire.NsConfig{MemoryBits: 1 << 15}})
	send("ns_create elastic and windowed", "", wire.Request{Op: wire.OpNsCreate, NS: []byte("t-both"), NsCfg: wire.NsConfig{WindowNanos: uint64(time.Hour), Flags: wire.NsFlagElastic}})
	send("ns_drop t-lazy", "", wire.Request{Op: wire.OpNsDrop, NS: []byte("t-lazy")})
	send("contains t-lazy after drop", "t-lazy", key(wire.OpContains, "t-lazy/a"))
	send("ns_drop never created", "", wire.Request{Op: wire.OpNsDrop, NS: []byte("t-never")})
	send("ns_list after drop", "", wire.Request{Op: wire.OpNsList})
	send("ring_get before set", "", wire.Request{Op: wire.OpRingGet})
	send("ring_set", "", wire.Request{Op: wire.OpRingSet, Ring: wire.Ring{Epoch: 3, New: []string{"a:1", "b:2"}}})
	send("ring_set stale", "", wire.Request{Op: wire.OpRingSet, Ring: wire.Ring{Epoch: 2, New: []string{"c:3"}}})
	send("ring_get", "", wire.Request{Op: wire.OpRingGet})
	send("replicate through dispatch", "", wire.Request{Op: wire.OpReplicate, Seq: 1})
	send(`len ""`, "", wire.Request{Op: wire.OpLen})
	send(`dump "" with namespaces`, "", wire.Request{Op: wire.OpDump})

	// A read-only replica's front end redirects mutations and serves reads.
	ro := New(s, Config{ReadOnly: true, PrimaryAddr: "primary:7070", Log: discardLog()}, nil)
	sendTo(ro, `read-only insert ""`, "", key(wire.OpInsert, "x"))
	sendTo(ro, `read-only insert "t-plain"`, "t-plain", key(wire.OpInsert, "x"))
	sendTo(ro, `read-only ns_create`, "", wire.Request{Op: wire.OpNsCreate, NS: []byte("t-ro")})
	sendTo(ro, `read-only contains ""`, "", key(wire.OpContains, "/a"))
	return out.String()
}
