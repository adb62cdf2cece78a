package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func TestRingRoundTrip(t *testing.T) {
	rings := []Ring{
		{},
		{Epoch: 1, Old: []string{"a:1"}, New: []string{"a:1"}},
		{Epoch: 7, Joint: true, Old: []string{"a:1", "b:2"}, New: []string{"a:1", "b:2", "c:3"}},
		{Epoch: 1 << 60, Joint: true, Old: []string{"10.0.0.1:7070/10.0.0.2:7070"}, New: nil},
	}
	for _, in := range rings {
		enc := AppendRing(nil, in)
		out, rest, err := DecodeRing(append(enc, 0xAA))
		if err != nil || len(rest) != 1 || rest[0] != 0xAA {
			t.Fatalf("ring %+v: rest=%x err=%v", in, rest, err)
		}
		if out.Epoch != in.Epoch || out.Joint != in.Joint ||
			!sameAddrs(out.Old, in.Old) || !sameAddrs(out.New, in.New) {
			t.Fatalf("ring round trip: got %+v, want %+v", out, in)
		}
	}
}

func sameAddrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDecodeRingRejectsMalformed(t *testing.T) {
	good := AppendRing(nil, Ring{Epoch: 2, Old: []string{"a:1"}, New: []string{"a:1", "b:2"}})
	bad := map[string][]byte{
		"empty":         {},
		"short header":  good[:5],
		"short count":   good[:9],
		"member cut":    good[:12],
		"absurd count":  append(append([]byte{}, good[:9]...), 0xFF, 0xFF),
		"zero len addr": append(append([]byte{}, good[:11]...), 0),
		"joint flag 2":  append(append(append([]byte{}, good[:8]...), 2), good[9:]...),
	}
	for name, b := range bad {
		if _, _, err := DecodeRing(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRingRequestDecode(t *testing.T) {
	ring := Ring{Epoch: 9, Joint: true, Old: []string{"x:1"}, New: []string{"x:1", "y:2"}}
	req, err := DecodeRequest(encode(Request{Op: OpRingSet, Ring: ring}))
	if err != nil {
		t.Fatal(err)
	}
	if req.Op != OpRingSet || req.Ring.Epoch != 9 || !req.Ring.Joint ||
		!sameAddrs(req.Ring.Old, ring.Old) || !sameAddrs(req.Ring.New, ring.New) {
		t.Fatalf("ring_set decoded %+v", req)
	}
	req, err = DecodeRequest([]byte{OpRingGet})
	if err != nil || req.Op != OpRingGet {
		t.Fatalf("ring_get: %+v %v", req, err)
	}
	req, err = DecodeRequest([]byte{OpElasticStats})
	if err != nil || req.Op != OpElasticStats {
		t.Fatalf("elastic_stats: %+v %v", req, err)
	}
	// ELASTIC_STATS addresses a namespace through the envelope.
	req, err = DecodeRequest(encode(Request{Op: OpElasticStats, NS: []byte("t")}))
	if err != nil || req.Op != OpElasticStats || string(req.NS) != "t" {
		t.Fatalf("namespaced elastic_stats: %+v %v", req, err)
	}
	blob := []byte("pretend-marshaled-filter")
	req, err = DecodeRequest(encode(Request{Op: OpImport, Blob: blob}))
	if err != nil || req.Op != OpImport || !bytes.Equal(req.Blob, blob) {
		t.Fatalf("import: %+v %v", req, err)
	}
	// IMPORT addresses a namespace through the envelope too.
	req, err = DecodeRequest(encode(Request{Op: OpImport, Blob: blob, NS: []byte("t")}))
	if err != nil || req.Op != OpImport || string(req.NS) != "t" || !bytes.Equal(req.Blob, blob) {
		t.Fatalf("namespaced import: %+v %v", req, err)
	}

	bad := map[string][]byte{
		"ring_set empty":        {OpRingSet},
		"ring_set truncated":    encode(Request{Op: OpRingSet, Ring: ring})[:6],
		"ring_set trailing":     append(encode(Request{Op: OpRingSet, Ring: ring}), 0xFF),
		"ring_get trailing":     {OpRingGet, 0},
		"elastic stats body":    {OpElasticStats, 0},
		"import empty":          {OpImport},
		"envelope ring_set":     append([]byte{OpNamespaced, 1, 'a'}, encode(Request{Op: OpRingSet, Ring: ring})...),
		"envelope ring_get":     {OpNamespaced, 1, 'a', OpRingGet},
		"envelope empty import": {OpNamespaced, 1, 'a', OpImport},
	}
	for name, payload := range bad {
		if _, err := DecodeRequest(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestImportIsMutationRingIsNot(t *testing.T) {
	if !IsMutation(OpImport) {
		t.Error("IMPORT must be a mutation: the durable ack is the reshard handoff watermark")
	}
	if IsMutation(OpRingSet) || IsMutation(OpRingGet) || IsMutation(OpElasticStats) {
		t.Error("ring/stats ops are coordination metadata, not mutations — replicas must accept them")
	}
}

func TestElasticStatsRoundTrip(t *testing.T) {
	in := ElasticStats{
		Grows:     3,
		Imports:   2,
		TargetFPR: 0.001,
		Gens: []ElasticGenStats{
			{Items: 1000, Capacity: 1000, FillRatio: 0.93, Budget: 0.0005, MemoryBits: 1 << 17},
			{Items: 512, Capacity: 0, FillRatio: 0.4, Budget: 0, MemoryBits: 1 << 16, Imported: true},
			{Items: 77, Capacity: 2000, FillRatio: 0.05, Budget: 0.00025, MemoryBits: 1 << 18},
		},
	}
	out, err := DecodeElasticStats(AppendElasticStats(nil, in))
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("elastic stats: %+v %v", out, err)
	}
	empty := ElasticStats{Grows: 1, TargetFPR: 0.01}
	out, err = DecodeElasticStats(AppendElasticStats(nil, empty))
	if err != nil || out.Grows != 1 || len(out.Gens) != 0 {
		t.Fatalf("empty-chain stats: %+v %v", out, err)
	}
	bad := map[string][]byte{
		"empty":    {},
		"short":    make([]byte, 10),
		"count":    AppendElasticStats(nil, ElasticStats{Gens: make([]ElasticGenStats, 2)})[:30],
		"trailing": append(AppendElasticStats(nil, in), 0xFF),
	}
	for name, body := range bad {
		if _, err := DecodeElasticStats(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNsConfigElasticFlag(t *testing.T) {
	cfg := NsConfig{MemoryBits: 1 << 20, Flags: NsFlagElastic}
	if !cfg.Elastic() {
		t.Fatal("Elastic() false with NsFlagElastic set")
	}
	enc := AppendNsConfig(nil, cfg)
	if len(enc) != NsConfigSize {
		t.Fatalf("encoded %d bytes, want %d", len(enc), NsConfigSize)
	}
	out, _, err := DecodeNsConfig(enc)
	if err != nil || out != cfg {
		t.Fatalf("flag round trip: %+v %v", out, err)
	}
	if (NsConfig{}).Elastic() {
		t.Fatal("zero config reports elastic")
	}
}
