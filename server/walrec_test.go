package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
	"time"

	mpcbf "repro"
	"repro/server/ns"
	"repro/server/wire"
)

// appendWALRecord appends one CRC-framed WAL record, body [op][payload],
// framed as the WAL frames it.
func appendWALRecord(dst []byte, op byte, payload []byte) []byte {
	body := append([]byte{op}, payload...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// shipSegment feeds replica r the primary's live segment up to its
// flushed position, as one replication frame.
func shipSegment(t *testing.T, p *Store, pdir string, r *Store) {
	t.Helper()
	seq, off, err := p.WALFlushedPos()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walPath(pdir, seq))
	if err != nil {
		t.Fatal(err)
	}
	raw = raw[:off]
	n, valid, err := scanRecords(bytes.NewReader(raw), func(byte, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if valid != off {
		t.Fatalf("segment has %d valid bytes, flushed position says %d", valid, off)
	}
	if err := r.ReplicaApply(seq, 0, uint32(n), raw); err != nil {
		t.Fatal(err)
	}
}

// smallSharded returns the encoding of a small Sharded filter holding
// keys.
func smallSharded(t testing.TB, keys [][]byte) []byte {
	t.Helper()
	g, err := mpcbf.NewSharded(mpcbf.Options{MemoryBits: 1 << 10, ExpectedItems: 40, Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.InsertBatch(keys, 0); err != nil {
		t.Fatal(err)
	}
	blob, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestEveryWALRecordIsNamed audits walRecords as wire's
// TestEveryOpIsNamed audits the opcode table. A store driven through
// every kind of state change writes only opcodes that have a row, and
// writes every row; names are unique; the WAL-only opcodes sit above the
// wire opcode space; the key records, which replay in batches, are
// exactly INSERT, DELETE and INSERT_TTL, and every other row has a
// replay function; an unassigned opcode's row is empty.
func TestEveryWALRecordIsNamed(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(testStoreOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	win := wire.NsConfig{MemoryBits: 1 << 12, ExpectedItems: 100, Shards: 2, WindowNanos: uint64(time.Hour), Generations: 2}
	el := wire.NsConfig{MemoryBits: 1 << 12, ExpectedItems: 100, Shards: 2, Flags: wire.NsFlagElastic}
	for name, cfg := range map[string]wire.NsConfig{"w": win, "e": el} {
		if err := s.wait(s.nsCreateEnq([]byte(name), cfg, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Insert([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	_, ticket, err := s.mutateEnq(wire.OpInsertTTL, []byte("w"), []byte("k"), nil, time.Minute, nil, nil)
	if err := s.wait(ticket, err); err != nil {
		t.Fatal(err)
	}
	rotateForTest(t, s, "w")
	nsInsertBatch(t, s, "e", storeKeys("e", 400)) // grows the chain
	if err := s.wait(s.importEnq([]byte("e"), smallSharded(t, storeKeys("imp", 4)), nil)); err != nil {
		t.Fatal(err)
	}
	if err := s.wait(s.nsDropEnq([]byte("w"), nil)); err != nil {
		t.Fatal(err)
	}
	seq, _, err := s.WALFlushedPos()
	if err != nil {
		t.Fatal(err)
	}
	written := map[byte]bool{}
	if _, _, err := replayWAL(walPath(dir, seq), func(op byte, _ []byte) error {
		written[op] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	seen := map[string]int{}
	for op, r := range walRecords {
		if r.name == "" {
			if r.targeted || r.mode != ns.Plain || r.replay != nil || written[byte(op)] {
				t.Errorf("opcode 0x%02x has no name, yet its row is not empty or the store writes it", op)
			}
			continue
		}
		if !written[byte(op)] {
			t.Errorf("no state change wrote %s (0x%02x)", r.name, op)
		}
		if prev, dup := seen[r.name]; dup {
			t.Errorf("opcodes 0x%02x and 0x%02x share the name %q", prev, op, r.name)
		}
		seen[r.name] = op
		if key := op == wire.OpInsert || op == wire.OpDelete || op == walOpInsertTTL; key != (r.replay == nil) {
			t.Errorf("%s: has a replay function: %v; want one exactly for the barriers", r.name, r.replay != nil)
		}
		if op != wire.OpInsert && op != wire.OpDelete && op <= wire.MaxOp {
			t.Errorf("WAL-only %s (0x%02x) is inside the wire opcode space (MaxOp 0x%02x)", r.name, op, wire.MaxOp)
		}
	}
}

// Replay fuzzing builds its namespaces from these names and
// configurations only, so that no record asks for a large filter: the
// empty name, which no namespace may take, three others, and one
// configuration of each mode.
var (
	fuzzNsNames   = []string{"", "a", "b", "c"}
	fuzzNsConfigs = []wire.NsConfig{
		{MemoryBits: 1 << 10, ExpectedItems: 40, HashFunctions: 3, MemoryAccesses: 1, Shards: 2, Seed: 7},
		{MemoryBits: 1 << 10, ExpectedItems: 40, HashFunctions: 3, MemoryAccesses: 1, Shards: 2, Seed: 7, WindowNanos: uint64(time.Hour), Generations: 2},
		{MemoryBits: 1 << 10, ExpectedItems: 40, HashFunctions: 3, MemoryAccesses: 1, Shards: 2, Seed: 7, Flags: wire.NsFlagElastic},
	}
	// fuzzOps are the opcodes a fuzzed record picks from: every row, and
	// one unassigned opcode.
	fuzzOps = []byte{wire.OpInsert, wire.OpDelete, walOpWindowRotate, walOpInsertTTL, walOpNsCreate,
		walOpNsDrop, walOpNsSelect, walOpElasticGrow, walOpElasticImport, 0x7F}
)

// replayFuzzOptions opens a replica of mode m (0 plain, 1 windowed, 2
// elastic) with a small seed geometry.
func replayFuzzOptions(dir string, m uint8) StoreOptions {
	o := testStoreOptions(dir)
	o.Filter = mpcbf.Options{MemoryBits: 1 << 10, ExpectedItems: 40, Seed: 42}
	o.Shards = 2
	o.Sync = SyncNever
	o.Replica = true
	switch m % 3 {
	case 1:
		o.Window, o.Generations = time.Hour, 2
	case 2:
		o.Elastic = true
	}
	return o
}

// fuzzFrame turns data, a sequence of [u8 pick][u8 len][len bytes],
// into a frame of WAL records. pick%10 chooses the opcode from fuzzOps
// and the bytes its payload. Namespace records take their name and
// configuration from the tables above when pick's top bit is clear, and
// otherwise carry the raw bytes, except that a raw NS_CREATE payload of
// the valid length is built from the tables too. Import records carry a
// small Sharded encoding when pick's top bit is clear. At most six
// ELASTIC_GROW records are kept, each one doubling a chain's capacity.
func fuzzFrame(data []byte, blob []byte) (raw []byte, n int) {
	grows := 0
	for len(data) >= 2 {
		pick, size := data[0], int(data[1])
		p := data[2:min(len(data), 2+size)]
		data = data[len(p)+2:]
		op, built := fuzzOps[int(pick)%len(fuzzOps)], pick&0x80 == 0 && len(p) > 0
		switch op {
		case walOpNsCreate:
			if built || len(p) > 0 && len(p) == 1+int(p[0])+wire.NsConfigSize {
				p = wire.AppendNsConfig(fuzzNsName(p[0]), fuzzNsConfigs[int(p[0]/4)%len(fuzzNsConfigs)])
			}
		case walOpNsDrop, walOpNsSelect:
			if built {
				p = fuzzNsName(p[0])
			}
		case walOpElasticImport:
			if built {
				p = blob
			}
		case walOpElasticGrow:
			if grows++; grows > 6 {
				continue
			}
		}
		raw = appendWALRecord(raw, op, p)
		n++
	}
	return raw, n
}

// fuzzNsName returns the [u8 len][name] block of the table name b picks.
func fuzzNsName(b byte) []byte {
	name := fuzzNsNames[int(b)%len(fuzzNsNames)]
	return append([]byte{byte(len(name))}, name...)
}

// FuzzReplayRecords feeds a replica of a fuzzed mode one frame of fuzzed
// records through ReplicaApply. Whatever the frame, the store must not
// panic, and what it mirrored must replay byte-identically, whether it
// accepted the frame or refused it at a record that failed to apply:
// closing the replica and reopening it from its WAL gives the DUMP the
// live replica gave.
func FuzzReplayRecords(f *testing.F) {
	rec := func(pick byte, payload ...byte) []byte { return append([]byte{pick, byte(len(payload))}, payload...) }
	frame := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	ttl := binary.LittleEndian.AppendUint32(nil, 2)
	// One frame per row (pick i is fuzzOps[i]), each in the mode it needs.
	f.Add(uint8(0), frame(rec(0, 'k')))
	f.Add(uint8(0), frame(rec(0, 'k'), rec(1, 'k')))
	f.Add(uint8(1), frame(rec(0, 'k'), rec(2), rec(3, append(ttl, 'k')...)))
	f.Add(uint8(1), frame(rec(3, append(ttl, 'k')...)))
	f.Add(uint8(0), frame(rec(4, 1), rec(6, 1), rec(0, 'k')))
	f.Add(uint8(0), frame(rec(4, 1), rec(6, 1), rec(0, 'k'), rec(5, 1)))
	f.Add(uint8(0), frame(rec(4, 5), rec(6, 5), rec(2), rec(3, append(ttl, 'k')...), rec(6, 0), rec(0, 'k')))
	f.Add(uint8(2), frame(rec(0, 'k'), rec(7), rec(0, 'j')))
	f.Add(uint8(2), frame(rec(8, 1), rec(0, 'k')))
	f.Add(uint8(0), frame(rec(9, 'x')))
	f.Add(uint8(1), frame(rec(2), rec(0x88, 4, 'n', 'o', 'p', 'e')))
	blob := smallSharded(f, storeKeys("fuzz", 8))

	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		opts := replayFuzzOptions(t.TempDir(), mode)
		s, err := OpenStore(opts)
		if err != nil {
			t.Fatal(err)
		}
		raw, n := fuzzFrame(data, blob)
		applyErr := s.ReplicaApply(1, 0, uint32(n), raw)
		want, err := s.MarshalFilter()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenStore(opts)
		if err != nil {
			t.Fatalf("reopen: %v; apply error %v", err, applyErr)
		}
		defer r.Close()
		got, err := r.MarshalFilter()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replayed DUMP (%d bytes) differs from the live replica's (%d bytes); apply error %v", len(got), len(want), applyErr)
		}
	})
}

// TestEmptyGroupLogsNoSelect: a request into a namespace that logs no
// record, a DELETE_BATCH of absent keys or an empty INSERT_BATCH, logs
// no NS_SELECT either, so the WAL does not move.
func TestEmptyGroupLogsNoSelect(t *testing.T) {
	s, err := OpenStore(testStoreOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.wait(s.nsCreateEnq([]byte("a"), wire.NsConfig{MemoryBits: 1 << 12, ExpectedItems: 100, Shards: 2}, nil)); err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct {
		name string
		op   byte
		keys [][]byte
	}{
		{"DELETE_BATCH of absent keys", wire.OpDeleteBatch, storeKeys("absent", 4)},
		{"empty INSERT_BATCH", wire.OpInsertBatch, nil},
	} {
		// An insert into the default filter makes it the WAL's selection.
		if err := s.Insert([]byte("k")); err != nil {
			t.Fatal(err)
		}
		seq, off := s.ReplicationPos()
		_, ticket, err := s.mutateEnq(req.op, []byte("a"), nil, req.keys, 0, nil, nil)
		if err := s.wait(ticket, err); err != nil {
			t.Fatal(err)
		}
		if gotSeq, gotOff := s.ReplicationPos(); gotSeq != seq || gotOff != off {
			t.Errorf("%s into \"a\" moved the WAL from (%d, %d) to (%d, %d)", req.name, seq, off, gotSeq, gotOff)
		}
	}
}
