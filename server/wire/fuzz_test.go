package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// The decoders face bytes from the network; whatever arrives — malformed
// frames, truncated keys, oversize counts — they must return an error,
// never panic or over-allocate. The fuzzers pin that, plus the property
// that the request and replication-frame codecs are inverses: whatever
// the encoders write decodes back to what they were given, and whatever
// the decoders accept re-encodes to the same bytes, except for the two
// request forms no sender writes (see canonical).

func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendKeyRequest(nil, OpInsert, []byte("key")))
	f.Add(AppendBatchRequest(nil, OpContainsBatch, [][]byte{[]byte("a"), []byte("b")}))
	f.Add(encode(Request{Op: OpLen}))
	f.Add(encode(Request{Op: OpDump}))
	f.Add(encode(Request{Op: OpReplicate, Seq: 3, Off: 999}))
	f.Add([]byte{OpInsertBatch, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{OpInsert, 0xFF, 0xFF, 0xFF, 0x7F, 'x'})
	f.Add(encode(Request{Op: OpInsertTTL, Key: []byte("ttl-key"), TTL: 30e9}))
	f.Add(encode(Request{Op: OpInsertTTLBatch, Keys: [][]byte{[]byte("a"), []byte("b")}, TTL: 1e9}))
	f.Add(encode(Request{Op: OpWindowStats}))
	// Truncated TTL frames: mid-ttl, mid-count, mid-key.
	f.Add([]byte{OpInsertTTL, 1, 2, 3})
	f.Add(append([]byte{OpInsertTTLBatch}, make([]byte, 9)...))
	f.Add(append(append([]byte{OpInsertTTLBatch}, make([]byte, 8)...), 2, 0, 0, 0, 1, 0, 0, 0, 'a'))
	// Oversized TTL frames: absurd key length / key count.
	f.Add(append(append([]byte{OpInsertTTL}, make([]byte, 8)...), 0xFF, 0xFF, 0xFF, 0x7F, 'x'))
	f.Add(append(append([]byte{OpInsertTTLBatch}, make([]byte, 8)...), 0xFF, 0xFF, 0xFF, 0x7F))
	// Namespace ops and the NAMESPACED envelope.
	f.Add(encode(Request{Op: OpNsCreate, NS: []byte("tenant"), NsCfg: NsConfig{MemoryBits: 1 << 20, Shards: 4}}))
	f.Add(encode(Request{Op: OpNsDrop, NS: []byte("tenant")}))
	f.Add(encode(Request{Op: OpNsList}))
	f.Add(encode(Request{Op: OpNsStats, NS: []byte("tenant")}))
	f.Add(encode(Request{Op: OpInsert, Key: []byte("key"), NS: []byte("t")}))
	f.Add(AppendBatchRequest([]byte{OpNamespaced, 0}, OpContainsBatch, [][]byte{[]byte("a")}))
	// Truncated namespace frames: mid-name, mid-config, empty inner.
	f.Add([]byte{OpNsCreate, 9, 'a'})
	f.Add(append([]byte{OpNsCreate, 1, 'a'}, make([]byte, NsConfigSize-2)...))
	f.Add([]byte{OpNamespaced, 3, 'a', 'b'})
	f.Add([]byte{OpNamespaced, 1, 'a'})
	// Oversized / hostile namespace frames: max name length, nested
	// envelope, enveloped replicate.
	f.Add(append([]byte{OpNsDrop, 0xFF}, make([]byte, 0xFF)...))
	f.Add([]byte{OpNamespaced, 1, 'a', OpNamespaced, 1, 'b', OpLen})
	f.Add(append([]byte{OpNamespaced, 1, 'a'}, encode(Request{Op: OpReplicate, Seq: 1, Off: 2})...))
	// TRACE envelope: full form, zero-length form, traced NAMESPACED,
	// truncated id block, bad id length, nested trace, traced replicate,
	// trace inside namespaced (must be outermost).
	f.Add(encode(Request{Op: OpInsert, Key: []byte("key"), TraceID: [TraceIDLen]byte{1, 2, 3}, ParentSpan: 42, Traced: true}))
	f.Add(AppendKeyRequest([]byte{OpTrace, 0}, OpContains, []byte("key")))
	f.Add(encode(Request{Op: OpInsert, Key: []byte("key"), NS: []byte("t"), TraceID: [TraceIDLen]byte{9}, ParentSpan: 7, Traced: true}))
	f.Add([]byte{OpTrace})
	f.Add([]byte{OpTrace, 24, 1, 2, 3})
	f.Add([]byte{OpTrace, 7, 1, 2, 3, 4, 5, 6, 7, OpLen})
	f.Add(append([]byte{OpTrace, TraceIDLen + 8}, make([]byte, TraceIDLen+8)...))
	f.Add([]byte{OpTrace, 0, OpTrace, 0})
	f.Add(append([]byte{OpTrace, 0}, encode(Request{Op: OpReplicate, Seq: 1, Off: 2})...))
	f.Add(AppendKeyRequest([]byte{OpNamespaced, 1, 't', OpTrace, 0}, OpInsert, []byte("k")))
	// Ring / import / elastic stats ops (protocol version 4): well-formed,
	// truncated mid-ring, oversized member count, empty import, enveloped
	// import and elastic stats, forbidden enveloped ring.
	f.Add(encode(Request{Op: OpRingSet, Ring: Ring{Epoch: 3, Joint: true, Old: []string{"a:1", "b:2"}, New: []string{"a:1", "b:2", "c:3"}}}))
	f.Add(encode(Request{Op: OpRingGet}))
	f.Add(encode(Request{Op: OpElasticStats}))
	f.Add(encode(Request{Op: OpImport, Blob: []byte("blobby")}))
	f.Add(encode(Request{Op: OpRingSet, Ring: Ring{Epoch: 1, Old: []string{"x:1"}, New: []string{"x:1"}}})[:12])
	f.Add([]byte{OpRingSet, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF})
	f.Add([]byte{OpImport})
	f.Add(encode(Request{Op: OpImport, Blob: []byte("blob"), NS: []byte("t")}))
	f.Add(encode(Request{Op: OpElasticStats, NS: []byte("t")}))
	f.Add([]byte{OpNamespaced, 1, 'a', OpRingGet})
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		// A successful decode implies a known, named opcode and a key set
		// that fits inside the payload.
		if req.Op == 0 || req.Op > MaxOp {
			t.Fatalf("decoded unknown opcode 0x%02x", req.Op)
		}
		total := 0
		for _, k := range req.Keys {
			total += len(k)
		}
		if len(req.Key)+total > len(payload) {
			t.Fatalf("decoded keys (%d bytes) exceed payload (%d bytes)", len(req.Key)+total, len(payload))
		}
		// AppendRequest inverts the decode: the request re-encodes to a
		// payload that decodes to the same request, byte for byte the
		// input unless that used a form no sender writes.
		again := AppendRequest(nil, &req)
		back, err := DecodeRequest(again)
		if err != nil {
			t.Fatalf("re-encoded %x does not decode: %v", again, err)
		}
		if d := requestDiff(&back, &req); d != "" {
			t.Fatalf("re-encoded %x decodes differently: %s", again, d)
		}
		if canonical(payload) && !bytes.Equal(again, payload) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", again, payload)
		}
	})
}

// canonical reports whether a payload the decoder accepted is in the form
// AppendRequest writes. The decoder also accepts two forms no sender
// writes, and both decode to the request without them: the zero-length
// TRACE form and a NAMESPACED envelope with an empty name.
func canonical(payload []byte) bool {
	if payload[0] == OpTrace {
		if payload[1] == 0 {
			return false
		}
		payload = payload[2+TraceIDLen+8:]
	}
	return payload[0] != OpNamespaced || payload[1] != 0
}

// FuzzRequestRoundTrip drives the request codec from the encoder's side:
// it builds a Request from fuzzed fields and encodes it with
// AppendRequest. When the fields form a request the decoder accepts,
// DecodeRequestInto must return an equal request; otherwise it must
// reject the payload. keys splits at ',' into a batch, members into ring
// sides at '|' and addresses at ',', and cfg fills an NsConfig field by
// field in declaration order.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(byte(OpInsert), []byte("key"), []byte(""), uint64(0), []byte(""), []byte(""), uint64(0), false,
		[]byte(""), uint64(0), false, "", uint64(0), uint64(0))
	f.Add(byte(OpContainsBatch), []byte(""), []byte("a,,ccc"), uint64(0), []byte("tenant"), []byte("0123456789abcdef"), uint64(42), true,
		[]byte(""), uint64(0), false, "", uint64(0), uint64(0))
	f.Add(byte(OpInsertTTLBatch), []byte(""), []byte("a,b"), uint64(30e9), []byte("t"), []byte(""), uint64(0), false,
		[]byte(""), uint64(0), false, "", uint64(0), uint64(0))
	f.Add(byte(OpNsCreate), []byte(""), []byte(""), uint64(0), []byte("tenant"), []byte("\x09"), uint64(7), true,
		[]byte("\x00\x00\x10\x00\x00\x00\x00\x00\xe8\x03\x00\x00\x00\x00\x00\x00\x03\x01\x04\x00"), uint64(0), false, "", uint64(0), uint64(0))
	f.Add(byte(OpRingSet), []byte(""), []byte(""), uint64(0), []byte(""), []byte(""), uint64(0), false,
		[]byte(""), uint64(3), true, "a:1,b:2|a:1,b:2,c:3", uint64(0), uint64(0))
	f.Add(byte(OpReplicate), []byte(""), []byte(""), uint64(0), []byte(""), []byte(""), uint64(0), false,
		[]byte(""), uint64(0), false, "", uint64(3), uint64(999))
	f.Add(byte(OpImport), []byte("blob"), []byte(""), uint64(0), []byte("t"), []byte(""), uint64(0), false,
		[]byte(""), uint64(0), false, "", uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, op byte, key, keys []byte, ttl uint64, ns, traceID []byte, parent uint64, traced bool,
		cfg []byte, epoch uint64, joint bool, members string, seq, off uint64) {
		if len(ns) > 255 {
			return // AppendRequest's precondition: the name fits its u8 length prefix
		}
		req := Request{Op: op, NS: ns, Traced: traced}
		if traced {
			copy(req.TraceID[:], traceID)
			req.ParentSpan = parent
		}
		var batch [][]byte
		if len(keys) > 0 {
			batch = bytes.Split(keys, []byte(","))
		}
		var nsCfg NsConfig
		block := make([]byte, binary.Size(nsCfg))
		copy(block, cfg)
		if err := binary.Read(bytes.NewReader(block), binary.LittleEndian, &nsCfg); err != nil {
			t.Fatal(err)
		}
		before, after, _ := strings.Cut(members, "|")
		ring := Ring{Epoch: epoch, Joint: joint, Old: splitAddrs(before), New: splitAddrs(after)}
		switch op {
		case OpInsert, OpDelete, OpContains, OpEstimate:
			req.Key = key
		case OpInsertTTL:
			req.Key, req.TTL = key, ttl
		case OpInsertBatch, OpDeleteBatch, OpContainsBatch:
			req.Keys = batch
		case OpInsertTTLBatch:
			req.Keys, req.TTL = batch, ttl
		case OpReplicate:
			req.Seq, req.Off = seq, off
		case OpNsCreate:
			req.NsCfg = nsCfg
		case OpRingSet:
			req.Ring = ring
		case OpImport:
			req.Blob = key
		}

		// The decoder accepts every known operation except where an
		// envelope may not go, an empty IMPORT, and a ring it cannot carry.
		accept := op != 0 && op <= MaxOp && op != OpNamespaced && op != OpTrace
		switch op {
		case OpReplicate:
			accept = accept && !traced && len(ns) == 0
		case OpNsList, OpRingGet:
			accept = accept && len(ns) == 0
		case OpRingSet:
			accept = accept && len(ns) == 0 && carriable(ring.Old) && carriable(ring.New)
		case OpImport:
			accept = accept && len(key) > 0
		}

		payload := AppendRequest(nil, &req)
		got, err := DecodeRequestInto(payload, nil)
		if !accept {
			if err == nil {
				t.Fatalf("decoder accepted %x, encoded from %+v", payload, req)
			}
			return
		}
		if err != nil {
			t.Fatalf("decoder rejected %x, encoded from %+v: %v", payload, req, err)
		}
		if d := requestDiff(&got, &req); d != "" {
			t.Fatalf("%x decoded differently: %s", payload, d)
		}
	})
}

// splitAddrs splits a ',' separated address list; "" is no addresses.
func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// carriable reports whether a ring side fits its encoding: at most
// MaxRingNodes members, each address 1 to 255 bytes.
func carriable(addrs []string) bool {
	for _, a := range addrs {
		if len(a) == 0 || len(a) > 255 {
			return false
		}
	}
	return len(addrs) <= MaxRingNodes
}

func FuzzDecodeStatus(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendOK(nil))
	f.Add(AppendErr(nil, "boom"))
	f.Add(AppendReadOnly(nil, "127.0.0.1:7070"))
	f.Add(AppendBools(AppendOK(nil), []bool{true, false}))
	f.Add(AppendU64(AppendOK(nil), 1<<63))
	f.Add(AppendNsList(AppendOK(nil), []string{"a", "tenant-b"}))
	f.Add(AppendNsStats(AppendOK(nil), NsStats{Resident: true, Items: 42}))
	f.Add(AppendRing(AppendOK(nil), Ring{Epoch: 5, Joint: true, Old: []string{"a:1"}, New: []string{"a:1", "b:2"}}))
	f.Add(AppendElasticStats(AppendOK(nil), ElasticStats{
		Grows: 2, TargetFPR: 0.01,
		Gens: []ElasticGenStats{{Items: 10, Capacity: 100, FillRatio: 0.1, Budget: 0.005, MemoryBits: 4096}},
	}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		status, body, err := DecodeStatus(payload)
		if err != nil {
			return
		}
		if 1+len(body) != len(payload) {
			t.Fatalf("status %d: body %d bytes from %d-byte payload", status, len(body), len(payload))
		}
		// The body decoders must tolerate arbitrary bodies.
		DecodeBool(body)
		DecodeU64(body)
		if vs, err := DecodeBools(body); err == nil && len(vs) > len(body) {
			t.Fatalf("bools: %d values from %d bytes", len(vs), len(body))
		}
		DecodeNsStats(body)
		if names, err := DecodeNsList(body); err == nil && len(names) > len(body) {
			t.Fatalf("ns list: %d names from %d bytes", len(names), len(body))
		}
		if r, _, err := DecodeRing(body); err == nil && len(r.Old)+len(r.New) > len(body) {
			t.Fatalf("ring: %d members from %d bytes", len(r.Old)+len(r.New), len(body))
		}
		if es, err := DecodeElasticStats(body); err == nil && len(es.Gens) > len(body) {
			t.Fatalf("elastic stats: %d generations from %d bytes", len(es.Gens), len(body))
		}
	})
}

// FuzzRepFrameRoundTrip drives the replication codec from both ends:
// DecodeRepFrame must never panic on arbitrary bytes, and re-encoding a
// successfully decoded frame must reproduce the original payload.
func FuzzRepFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRepSnapshot(nil, 1, 10, 100, []byte("filter")))
	f.Add(AppendRepRecords(nil, 2, 64, 11, 132, 1, []byte("rawrecord")))
	f.Add(AppendRepHeartbeat(nil, 2, 96, 12, 164, 1700000000000000000))
	f.Add([]byte{RepHeartbeat, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
		17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}) // legacy 32-byte body
	f.Add([]byte{RepRecords, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := DecodeRepFrame(payload)
		if err != nil {
			return
		}
		var again []byte
		switch fr.Type {
		case RepSnapshot:
			again = AppendRepSnapshot(nil, fr.Seq, fr.CumRecords, fr.CumBytes, fr.Data)
		case RepRecords:
			again = AppendRepRecords(nil, fr.Seq, fr.Off, fr.CumRecords, fr.CumBytes, fr.NumRecords, fr.Data)
		case RepHeartbeat:
			again = AppendRepHeartbeat(nil, fr.Seq, fr.Off, fr.CumRecords, fr.CumBytes, fr.SentUnixNanos)
			// A legacy 32-byte heartbeat re-encodes in the 40-byte form
			// with a zero timestamp appended; the prefix must still match.
			if len(payload) == 33 {
				if fr.SentUnixNanos != 0 {
					t.Fatalf("legacy heartbeat decoded timestamp %d", fr.SentUnixNanos)
				}
				again = again[:33]
			}
		default:
			t.Fatalf("decoded unknown frame type 0x%02x", fr.Type)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", again, payload)
		}
	})
}
