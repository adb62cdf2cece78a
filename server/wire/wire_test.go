package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {0x01}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range payloads {
		got, err := ReadFrame(&buf, scratch, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		scratch = got[:0]
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&buf, nil, 50); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestRequestRoundTrip pins AppendRequest's bytes for every operation
// opcode and the TRACE, NAMESPACED and TRACE[NAMESPACED] forms. The hex
// is the output of the per-op encoders AppendRequest replaced, so it is
// the protocol every deployed peer speaks; each payload must also decode
// back to its request.
func TestRequestRoundTrip(t *testing.T) {
	keys := [][]byte{[]byte("a"), {}, []byte("ccc")}
	cfg := NsConfig{MemoryBits: 1 << 22, ExpectedItems: 5000, HashFunctions: 3, MemoryAccesses: 1,
		Shards: 8, Seed: 99, WindowNanos: 60e9, Generations: 4, Flags: NsFlagElastic}
	ring := Ring{Epoch: 3, Joint: true, Old: []string{"a:1", "b:2"}, New: []string{"a:1", "b:2", "c:3"}}
	id := [TraceIDLen]byte{0xAA, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xFF}
	key := []byte("key")
	cases := []struct {
		name string
		req  Request
		hex  string
	}{
		{"insert", Request{Op: OpInsert, Key: key}, "01030000006b6579"},
		{"delete", Request{Op: OpDelete, Key: key}, "02030000006b6579"},
		{"contains", Request{Op: OpContains, Key: key}, "03030000006b6579"},
		{"estimate", Request{Op: OpEstimate, Key: []byte{}}, "0400000000"},
		{"len", Request{Op: OpLen}, "05"},
		{"insert_batch", Request{Op: OpInsertBatch, Keys: keys}, "060300000001000000610000000003000000636363"},
		{"delete_batch", Request{Op: OpDeleteBatch, Keys: keys[:1]}, "07010000000100000061"},
		{"contains_batch", Request{Op: OpContainsBatch}, "0800000000"},
		{"replicate", Request{Op: OpReplicate, Seq: 7, Off: 1 << 33}, "0907000000000000000000000002000000"},
		{"dump", Request{Op: OpDump}, "0a"},
		{"insert_ttl", Request{Op: OpInsertTTL, Key: []byte("ttl-key"), TTL: 5e9}, "0b00f2052a010000000700000074746c2d6b6579"},
		{"insert_ttl_batch", Request{Op: OpInsertTTLBatch, Keys: keys[:1], TTL: 7e9}, "0c00863ba101000000010000000100000061"},
		{"window_stats", Request{Op: OpWindowStats}, "0d"},
		{"ns_create", Request{Op: OpNsCreate, NS: []byte("tenant-b"), NsCfg: cfg},
			"0e0874656e616e742d62000040000000000088130000000000000301080063000000005847f80d000000040001"},
		{"ns_drop", Request{Op: OpNsDrop, NS: []byte("tenant-a")}, "0f0874656e616e742d61"},
		{"ns_list", Request{Op: OpNsList}, "10"},
		{"ns_stats", Request{Op: OpNsStats, NS: []byte("tenant-a")}, "110874656e616e742d61"},
		{"ns_stats default", Request{Op: OpNsStats}, "1100"},
		{"ring_set", Request{Op: OpRingSet, Ring: ring}, "14030000000000000001020003613a3103623a32030003613a3103623a3203633a33"},
		{"ring_get", Request{Op: OpRingGet}, "15"},
		{"import", Request{Op: OpImport, Blob: []byte("filter")}, "1666696c746572"},
		{"elastic_stats", Request{Op: OpElasticStats}, "17"},
		{"namespaced insert", Request{Op: OpInsert, Key: key, NS: []byte("t1")}, "1202743101030000006b6579"},
		{"namespaced insert_ttl_batch", Request{Op: OpInsertTTLBatch, Keys: keys, TTL: 1e9, NS: []byte("t2")},
			"120274320c00ca9a3b000000000300000001000000610000000003000000636363"},
		{"namespaced import", Request{Op: OpImport, Blob: []byte("filter"), NS: []byte("t3")}, "120274331666696c746572"},
		{"traced contains", Request{Op: OpContains, Key: key, TraceID: id, ParentSpan: 77, Traced: true},
			"1318aa0102030405060708090a0b0c0d0eff4d0000000000000003030000006b6579"},
		{"traced ns_create", Request{Op: OpNsCreate, NS: []byte("tenant-b"), TraceID: id, ParentSpan: 77, Traced: true},
			"1318aa0102030405060708090a0b0c0d0eff4d000000000000000e0874656e616e742d62" + strings.Repeat("00", NsConfigSize)},
		{"traced namespaced contains_batch",
			Request{Op: OpContainsBatch, Keys: keys, NS: []byte("t5"), TraceID: id, ParentSpan: 1 << 40, Traced: true},
			"1318aa0102030405060708090a0b0c0d0eff000000000001000012027435080300000001000000610000000003000000636363"},
	}
	ops := map[byte]bool{}
	for _, c := range cases {
		want, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendRequest(nil, &c.req); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendRequest wrote\n %x\nwant\n %s", c.name, got, c.hex)
		}
		got, err := DecodeRequest(want)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := requestDiff(&got, &c.req); d != "" {
			t.Errorf("%s: decoded %s", c.name, d)
		}
		ops[c.req.Op] = true
	}
	for op := byte(1); op <= MaxOp; op++ {
		if !ops[op] && op != OpNamespaced && op != OpTrace {
			t.Errorf("no pinned encoding for %s", OpName(op))
		}
	}

	// The decoder also accepts two forms no sender writes: the zero-length
	// TRACE form and a NAMESPACED envelope with an empty name. Both decode
	// to the bare request, which AppendRequest writes without them.
	inner := AppendKeyRequest(nil, OpContains, key)
	for name, payload := range map[string][]byte{
		"trace zero-length form":        append([]byte{OpTrace, 0}, inner...),
		"namespaced empty name":         append([]byte{OpNamespaced, 0}, inner...),
		"zero-length trace, empty name": append([]byte{OpTrace, 0, OpNamespaced, 0}, inner...),
	} {
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := requestDiff(&got, &Request{Op: OpContains, Key: key}); d != "" {
			t.Errorf("%s: decoded %s", name, d)
		}
		if again := AppendRequest(nil, &got); !bytes.Equal(again, inner) {
			t.Errorf("%s: re-encoded %x, want %x", name, again, inner)
		}
	}
}

// requestDiff describes how got differs from want, or returns "" when
// they are the same request. Byte slices compare by content, so a nil
// field equals an empty one.
func requestDiff(got, want *Request) string {
	switch {
	case got.Op != want.Op:
		return fmt.Sprintf("op %s, want %s", OpName(got.Op), OpName(want.Op))
	case !bytes.Equal(got.Key, want.Key):
		return fmt.Sprintf("key %q, want %q", got.Key, want.Key)
	case len(got.Keys) != len(want.Keys):
		return fmt.Sprintf("%d keys, want %d", len(got.Keys), len(want.Keys))
	case got.TTL != want.TTL || got.Seq != want.Seq || got.Off != want.Off:
		return fmt.Sprintf("ttl/seq/off %d/%d/%d, want %d/%d/%d", got.TTL, got.Seq, got.Off, want.TTL, want.Seq, want.Off)
	case !bytes.Equal(got.NS, want.NS) || got.NsCfg != want.NsCfg:
		return fmt.Sprintf("namespace %q %+v, want %q %+v", got.NS, got.NsCfg, want.NS, want.NsCfg)
	case !bytes.Equal(got.Blob, want.Blob):
		return fmt.Sprintf("blob %q, want %q", got.Blob, want.Blob)
	case got.Ring.Epoch != want.Ring.Epoch || got.Ring.Joint != want.Ring.Joint ||
		!sameAddrs(got.Ring.Old, want.Ring.Old) || !sameAddrs(got.Ring.New, want.Ring.New):
		return fmt.Sprintf("ring %+v, want %+v", got.Ring, want.Ring)
	case got.TraceID != want.TraceID || got.ParentSpan != want.ParentSpan || got.Traced != want.Traced:
		return fmt.Sprintf("trace %x/%d/%v, want %x/%d/%v",
			got.TraceID, got.ParentSpan, got.Traced, want.TraceID, want.ParentSpan, want.Traced)
	}
	for i := range got.Keys {
		if !bytes.Equal(got.Keys[i], want.Keys[i]) {
			return fmt.Sprintf("key %d %q, want %q", i, got.Keys[i], want.Keys[i])
		}
	}
	return ""
}

// encode is AppendRequest into a fresh buffer, for building payloads.
func encode(r Request) []byte { return AppendRequest(nil, &r) }

func TestDecodeRequestRejectsMalformed(t *testing.T) {
	// trace is a full TRACE envelope header (trace id {1}, parent span
	// 2), capped so appending to it copies.
	const hdr = 2 + TraceIDLen + 8
	trace := encode(Request{Op: OpLen, TraceID: [TraceIDLen]byte{1}, ParentSpan: 2, Traced: true})[:hdr:hdr]
	bad := map[string][]byte{
		"empty":                  {},
		"unknown op":             {0xEE},
		"zeroed":                 make([]byte, 16),
		"insert no key":          {OpInsert},
		"insert short len":       {OpInsert, 1, 0},
		"insert key overrun":     {OpInsert, 10, 0, 0, 0, 'x'},
		"insert trailing":        append(AppendKeyRequest(nil, OpInsert, []byte("k")), 0xFF),
		"len trailing":           {OpLen, 0},
		"batch no count":         {OpInsertBatch, 1},
		"batch absurd count":     {OpInsertBatch, 0xFF, 0xFF, 0xFF, 0x7F},
		"batch truncated keys":   {OpInsertBatch, 2, 0, 0, 0, 1, 0, 0, 0, 'a'},
		"batch trailing":         append(AppendBatchRequest(nil, OpContainsBatch, [][]byte{[]byte("k")}), 0x01),
		"dump trailing":          {OpDump, 0},
		"replicate short":        {OpReplicate, 1, 2, 3},
		"replicate long":         append(encode(Request{Op: OpReplicate, Seq: 1, Off: 2}), 0xFF),
		"ttl no ttl":             {OpInsertTTL, 1, 2, 3},
		"ttl no key":             append([]byte{OpInsertTTL}, make([]byte, 8)...),
		"ttl key overrun":        append(append([]byte{OpInsertTTL}, make([]byte, 8)...), 10, 0, 0, 0, 'x'),
		"ttl trailing":           append(encode(Request{Op: OpInsertTTL, Key: []byte("k"), TTL: 1}), 0xFF),
		"ttl batch short":        {OpInsertTTLBatch, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		"ttl batch absurd":       append(append([]byte{OpInsertTTLBatch}, make([]byte, 8)...), 0xFF, 0xFF, 0xFF, 0x7F),
		"ttl batch truncated":    append(append([]byte{OpInsertTTLBatch}, make([]byte, 8)...), 2, 0, 0, 0, 1, 0, 0, 0, 'a'),
		"ttl batch trailing":     append(encode(Request{Op: OpInsertTTLBatch, Keys: [][]byte{[]byte("k")}, TTL: 1}), 0x01),
		"window stats body":      {OpWindowStats, 0},
		"ns create no name":      {OpNsCreate},
		"ns create name overrun": {OpNsCreate, 5, 'a', 'b'},
		"ns create short cfg":    append([]byte{OpNsCreate, 1, 'a'}, make([]byte, NsConfigSize-1)...),
		"ns create trailing":     append(encode(Request{Op: OpNsCreate, NS: []byte("a")}), 0xFF),
		"ns drop no name":        {OpNsDrop},
		"ns drop name overrun":   {OpNsDrop, 9, 'a'},
		"ns drop trailing":       append(encode(Request{Op: OpNsDrop, NS: []byte("a")}), 0xFF),
		"ns stats overrun":       {OpNsStats, 2, 'a'},
		"ns list trailing":       {OpNsList, 0},
		"envelope no name":       {OpNamespaced},
		"envelope name overrun":  {OpNamespaced, 4, 'a', 'b'},
		"envelope empty inner":   {OpNamespaced, 1, 'a'},
		"envelope nested":        {OpNamespaced, 1, 'a', OpNamespaced, 0, OpLen},
		"envelope replicate":     append([]byte{OpNamespaced, 1, 'a'}, encode(Request{Op: OpReplicate, Seq: 1, Off: 2})...),
		"envelope ns_create":     append([]byte{OpNamespaced, 1, 'a'}, encode(Request{Op: OpNsCreate, NS: []byte("b")})...),
		"envelope ns_drop":       append([]byte{OpNamespaced, 1, 'a'}, encode(Request{Op: OpNsDrop, NS: []byte("b")})...),
		"envelope ns_list":       {OpNamespaced, 1, 'a', OpNsList},
		"envelope ns_stats":      append([]byte{OpNamespaced, 1, 'a'}, encode(Request{Op: OpNsStats, NS: []byte("b")})...),
		"envelope bad inner":     {OpNamespaced, 1, 'a', OpInsert, 9, 0, 0, 0, 'x'},
		"envelope unknown op":    {OpNamespaced, 1, 'a', 0xEE},
		"trace no id len":        {OpTrace},
		"trace bad id len":       {OpTrace, 7, 1, 2, 3, 4, 5, 6, 7, OpLen},
		"trace short id block":   {OpTrace, 24, 1, 2, 3},
		"trace empty inner":      trace,
		"trace nested":           {OpTrace, 0, OpTrace, 0},
		"trace nested full":      append(trace, encode(Request{Op: OpInsert, Key: []byte("k"), TraceID: [TraceIDLen]byte{3}, ParentSpan: 4, Traced: true})...),
		"trace replicate":        append(trace, encode(Request{Op: OpReplicate, Seq: 1, Off: 2})...),
		"trace inside envelope":  append([]byte{OpNamespaced, 1, 'a', OpTrace, 0}, AppendKeyRequest(nil, OpInsert, []byte("k"))...),
		"trace bad inner":        AppendKeyRequest(trace, OpInsert, nil)[:28],
		"trace unknown op":       {OpTrace, 0, 0xEE},
	}
	for name, payload := range bad {
		if _, err := DecodeRequest(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestResponseHelpers(t *testing.T) {
	status, body, err := DecodeStatus(AppendErr(nil, "boom"))
	if err != nil || status != StatusErr || string(body) != "boom" {
		t.Fatalf("err response: %d %q %v", status, body, err)
	}
	if v, err := DecodeBool(AppendOK(nil)[1:]); err == nil {
		t.Fatalf("empty bool body accepted: %v", v)
	}
	if v, err := DecodeBool(AppendBool(nil, true)); err != nil || !v {
		t.Fatalf("bool: %v %v", v, err)
	}
	if v, err := DecodeU64(AppendU64(nil, 1<<40)); err != nil || v != 1<<40 {
		t.Fatalf("u64: %d %v", v, err)
	}
	in := []bool{true, false, true, true}
	out, err := DecodeBools(AppendBools(nil, in))
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("bools: %v %v", out, err)
	}
	if _, err := DecodeBools([]byte{5, 0, 0, 0, 1}); err == nil {
		t.Fatal("bools count mismatch accepted")
	}
	status, body, err = DecodeStatus(AppendReadOnly(nil, "10.0.0.1:7070"))
	if err != nil || status != StatusReadOnly || string(body) != "10.0.0.1:7070" {
		t.Fatalf("read-only response: %d %q %v", status, body, err)
	}
}

func TestWindowStatsRoundTrip(t *testing.T) {
	in := WindowStats{
		Generations:      4,
		Head:             2,
		Rotations:        99,
		SpanNanos:        60e9,
		RotateEveryNanos: 15e9,
		PendingExpiries:  3,
		GenItems:         []uint64{10, 0, 500, 42},
	}
	out, err := DecodeWindowStats(AppendWindowStats(nil, in))
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("window stats: %+v %v", out, err)
	}
	bad := map[string][]byte{
		"empty":       {},
		"short":       make([]byte, 10),
		"count short": AppendWindowStats(nil, WindowStats{Generations: 4, GenItems: []uint64{1}}),
		"trailing":    append(AppendWindowStats(nil, in), 0xFF),
	}
	for name, body := range bad {
		if _, err := DecodeWindowStats(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNsStatsRoundTrip(t *testing.T) {
	in := NsStats{
		Resident:   true,
		Windowed:   true,
		Items:      12345,
		MemoryBits: 1 << 23,
		Evictions:  7,
		Recoveries: 6,
	}
	out, err := DecodeNsStats(AppendNsStats(nil, in))
	if err != nil || out != in {
		t.Fatalf("ns stats: %+v %v", out, err)
	}
	bad := map[string][]byte{
		"empty":    {},
		"short":    make([]byte, 10),
		"trailing": append(AppendNsStats(nil, in), 0xFF),
	}
	for name, body := range bad {
		if _, err := DecodeNsStats(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNsListRoundTrip(t *testing.T) {
	for _, names := range [][]string{nil, {"a"}, {"alpha", "beta-2", "x_y.z"}} {
		out, err := DecodeNsList(AppendNsList(nil, names))
		if err != nil || len(out) != len(names) {
			t.Fatalf("ns list %v: %v %v", names, out, err)
		}
		for i := range names {
			if out[i] != names[i] {
				t.Fatalf("ns list: got %v, want %v", out, names)
			}
		}
	}
	bad := map[string][]byte{
		"empty":        {},
		"short count":  {1, 0},
		"absurd count": {0xFF, 0xFF, 0xFF, 0x7F},
		"name overrun": {1, 0, 0, 0, 5, 'a'},
		"trailing":     append(AppendNsList(nil, []string{"a"}), 0xFF),
	}
	for name, body := range bad {
		if _, err := DecodeNsList(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestValidateNamespace(t *testing.T) {
	good := []string{"a", "tenant-1", "A.B_c-9", strings.Repeat("x", MaxNamespaceLen)}
	for _, name := range good {
		if err := ValidateNamespace(name); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	bad := []string{"", strings.Repeat("x", MaxNamespaceLen+1), "has space", "sl/ash", "nul\x00", "ütf8"}
	for _, name := range bad {
		if err := ValidateNamespace(name); err == nil {
			t.Errorf("%q accepted", name)
		}
	}
}

func TestNsConfigRoundTrip(t *testing.T) {
	in := NsConfig{
		MemoryBits:     1 << 30,
		ExpectedItems:  1e6,
		HashFunctions:  5,
		MemoryAccesses: 2,
		Shards:         1024,
		Seed:           0xDEADBEEF,
		WindowNanos:    3600e9,
		Generations:    16,
		Flags:          NsFlagElastic,
	}
	enc := AppendNsConfig(nil, in)
	if len(enc) != NsConfigSize {
		t.Fatalf("encoded %d bytes, want %d", len(enc), NsConfigSize)
	}
	out, rest, err := DecodeNsConfig(append(enc, 0xAA))
	if err != nil || out != in || len(rest) != 1 || rest[0] != 0xAA {
		t.Fatalf("round trip: %+v rest=%x err=%v", out, rest, err)
	}
	if _, _, err := DecodeNsConfig(enc[:NsConfigSize-1]); err == nil {
		t.Fatal("short config accepted")
	}
}

// TestEveryOpIsNamed audits the opcode table against the full opcode
// range: every opcode in (0, MaxOp] has a row with a unique name and a
// layout, and the opcodes around it have none, so a future opcode added
// without a row (or without bumping MaxOp) fails here instead of
// shipping as "op_0x..".
func TestEveryOpIsNamed(t *testing.T) {
	seen := map[string]byte{}
	for op := byte(1); op <= MaxOp; op++ {
		r := row(op)
		if r.name == "" || r.body == 0 {
			t.Errorf("opcode 0x%02x: row %+v lacks a name or a layout", op, r)
		}
		if prev, dup := seen[r.name]; dup {
			t.Errorf("opcodes 0x%02x and 0x%02x share the name %q", prev, op, r.name)
		}
		seen[r.name] = op
	}
	for _, op := range []byte{0, MaxOp + 1} {
		if r := row(op); r != (opInfo{}) || !strings.HasPrefix(OpName(op), "op_0x") {
			t.Errorf("opcode 0x%02x has row %+v, named %q: bump MaxOp", op, r, OpName(op))
		}
	}
}

func TestRepFrameRoundTrip(t *testing.T) {
	raw := []byte("pretend-records")
	cases := []struct {
		name    string
		payload []byte
		want    RepFrame
	}{
		{
			"snapshot",
			AppendRepSnapshot(nil, 3, 100, 2000, []byte("filter-bytes")),
			RepFrame{Type: RepSnapshot, Seq: 3, CumRecords: 100, CumBytes: 2000, Data: []byte("filter-bytes")},
		},
		{
			"records",
			AppendRepRecords(nil, 4, 512, 101, 2100, 1, raw),
			RepFrame{Type: RepRecords, Seq: 4, Off: 512, CumRecords: 101, CumBytes: 2100, NumRecords: 1, Data: raw},
		},
		{
			"heartbeat",
			AppendRepHeartbeat(nil, 5, 1<<40, 7, 9, 1700000000000000042),
			RepFrame{Type: RepHeartbeat, Seq: 5, Off: 1 << 40, CumRecords: 7, CumBytes: 9, SentUnixNanos: 1700000000000000042},
		},
		{
			// Legacy 32-byte heartbeat body (no send timestamp) still decodes.
			"heartbeat legacy",
			AppendRepHeartbeat(nil, 5, 1<<40, 7, 9, 0)[:33],
			RepFrame{Type: RepHeartbeat, Seq: 5, Off: 1 << 40, CumRecords: 7, CumBytes: 9},
		},
	}
	for _, c := range cases {
		got, err := DecodeRepFrame(c.payload)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Type != c.want.Type || got.Seq != c.want.Seq || got.Off != c.want.Off ||
			got.CumRecords != c.want.CumRecords || got.CumBytes != c.want.CumBytes ||
			got.NumRecords != c.want.NumRecords || got.SentUnixNanos != c.want.SentUnixNanos ||
			!bytes.Equal(got.Data, c.want.Data) {
			t.Fatalf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestDecodeRepFrameRejectsMalformed(t *testing.T) {
	bad := map[string][]byte{
		"empty":              {},
		"unknown type":       {0x7F},
		"status byte":        {StatusOK},
		"snapshot short":     {RepSnapshot, 1, 2, 3},
		"records short":      append([]byte{RepRecords}, make([]byte, 35)...),
		"records bad count":  AppendRepRecords(nil, 1, 0, 0, 0, 1<<30, []byte("tiny")),
		"heartbeat short":    {RepHeartbeat, 1},
		"heartbeat odd size": AppendRepHeartbeat(nil, 1, 2, 3, 4, 5)[:37],
		"heartbeat trailing": append(AppendRepHeartbeat(nil, 1, 2, 3, 4, 5), 0xFF),
	}
	for name, payload := range bad {
		if _, err := DecodeRepFrame(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// BenchmarkDecodeRequest times DecodeRequestInto with a reused key
// scratch on a single-key request, a 256-key batch, and the fully
// dressed TRACE[NAMESPACED[INSERT]] form.
func BenchmarkDecodeRequest(b *testing.B) {
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%06d", i))
	}
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"key", Request{Op: OpContains, Key: keys[0]}},
		{"batch256", Request{Op: OpContainsBatch, Keys: keys}},
		{"trace_ns_insert", Request{Op: OpInsert, Key: keys[0], NS: []byte("tenant-a"),
			TraceID: [TraceIDLen]byte{1, 2, 3}, ParentSpan: 7, Traced: true}},
	} {
		payload := encode(c.req)
		b.Run(c.name, func(b *testing.B) {
			var scratch [][]byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req, err := DecodeRequestInto(payload, scratch)
				if err != nil {
					b.Fatal(err)
				}
				scratch = req.Keys
			}
		})
	}
}
