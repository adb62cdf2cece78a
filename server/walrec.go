package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/server/ns"
	"repro/server/wire"
)

// WAL records. Every state change the store makes durable is one WAL
// record (wal.go frames it), whose body is [u8 op][payload]:
//
//	INSERT          [0x01][key]
//	DELETE          [0x02][key]
//	ROTATE          [0xE0]                        the window ring advanced one slot
//	INSERT_TTL      [0xE1][u32 r][key]            key placed r rotations from retirement
//	NS_CREATE       [0xE2][u8 len][name][config]  config: the resolved NsConfigSize-byte block
//	NS_DROP         [0xE3][u8 len][name]
//	NS_SELECT       [0xE4][u8 len][name]          len 0 = the default filter
//	ELASTIC_GROW    [0xE5]                        the chain appended a head generation
//	ELASTIC_IMPORT  [0xE6][Sharded encoding]      spliced in as a frozen generation
//
// INSERT and DELETE reuse their wire opcodes. The other records are
// WAL-only, above wire.MaxOp, because no client sends them: the
// primary's clock rotates a window and a head's fill grows a chain.
// Each carries what makes replay deterministic, so a recovery hours
// later or a replica mirroring the WAL bytes rebuilds the same state: a
// TTL insert logs its rotation count, not its wall-clock TTL (which is
// why TTLs have rotation granularity), NS_CREATE the resolved
// configuration rather than one the replaying node's defaults would
// resolve, and an import the exact generation bytes.
//
// A targeted record applies to the namespace the last NS_SELECT named.
// The selection resets to the default filter at every segment boundary,
// so a snapshot plus its tail segments is self-describing, and logLocked
// emits the SELECT whenever a targeted record's namespace is not the
// selected one, so targeted records are selected by construction.
//
// The key records (INSERT, DELETE, INSERT_TTL) replay in batches. Every
// other record is a barrier: the pending keys apply first, to the state
// they were logged against (the pre-rotation ring slot, the pre-growth
// head, the pre-event selection), and then the record applies alone.
//
// Evictions are not logged: residency is local policy (each node has
// its own quota), while the WAL describes the logical state that
// primaries and byte-mirroring replicas agree on.
const (
	walOpWindowRotate  = 0xE0
	walOpInsertTTL     = 0xE1
	walOpNsCreate      = 0xE2
	walOpNsDrop        = 0xE3
	walOpNsSelect      = 0xE4
	walOpElasticGrow   = 0xE5
	walOpElasticImport = 0xE6
)

// recInfo is everything the store knows about one WAL record kind.
type recInfo struct {
	name string
	// targeted records apply to the selected namespace, which must have
	// mode. No record needs a plain filter, so the zero mode, Plain,
	// accepts any.
	targeted bool
	mode     ns.Mode
	// replay applies a barrier record to e, the selected namespace, made
	// resident first when the record is targeted. Nil for the key
	// records.
	replay func(s *Store, e *ns.Entry, payload []byte) error
}

// walRecords declares every WAL record kind once, indexed by opcode; an
// unassigned opcode's row is empty.
var walRecords = [256]recInfo{
	wire.OpInsert:      {name: "INSERT", targeted: true},
	wire.OpDelete:      {name: "DELETE", targeted: true},
	walOpWindowRotate:  {name: "ROTATE", targeted: true, mode: ns.Windowed, replay: (*Store).replayRotate},
	walOpInsertTTL:     {name: "INSERT_TTL", targeted: true, mode: ns.Windowed},
	walOpNsCreate:      {name: "NS_CREATE", replay: (*Store).replayNsCreate},
	walOpNsDrop:        {name: "NS_DROP", replay: (*Store).replayNsDrop},
	walOpNsSelect:      {name: "NS_SELECT", replay: (*Store).replayNsSelect},
	walOpElasticGrow:   {name: "ELASTIC_GROW", targeted: true, mode: ns.Elastic, replay: (*Store).replayGrow},
	walOpElasticImport: {name: "ELASTIC_IMPORT", targeted: true, mode: ns.Elastic, replay: (*Store).replayImport},
}

// logLocked enqueues one op record per key, body [op][extra][key] (only
// the keys whose flag is set when flags is non-nil), preceded by e's
// NS_SELECT when the record is targeted and the WAL's selection is
// another namespace. The SELECT shares the commit round of the records
// after it, and a group with no records logs no SELECT either. It
// returns the group's commit ticket, 0 for no records. Caller holds s.mu.
func (s *Store) logLocked(e *ns.Entry, op byte, extra []byte, keys [][]byte, flags []bool, tr *reqTrace) (uint64, error) {
	if len(keys) == 0 || flags != nil && !slices.Contains(flags, true) {
		return 0, nil
	}
	if walRecords[op].targeted && s.walCtx != e {
		if _, err := s.wal.Enqueue(walOpNsSelect, e.WALName(), nil); err != nil {
			return 0, err
		}
		s.walCtx = e
	}
	return s.wal.EnqueueBatch(op, extra, keys, flags, tr)
}

// logOneLocked is logLocked for one record, body [op][payload].
func (s *Store) logOneLocked(e *ns.Entry, op byte, payload []byte, tr *reqTrace) (uint64, error) {
	one := [1][]byte{payload}
	return s.logLocked(e, op, nil, one[:], nil, tr)
}

// batchApplier feeds WAL-ordered records into the filters, batching runs
// of same-op key records through the parallel batch paths. Per-shard
// order is preserved inside a batch, so the result is identical to
// one-by-one application. Apply errors of key batches are logged and
// skipped: a record describes a mutation that succeeded live, so an
// apply failure means counter divergence from a lost earlier record, and
// dropping the op is strictly safer than aborting recovery or a
// replication stream. Keys handed to add may alias the scan buffer —
// scanRecords allocates each record body fresh, so they stay valid until
// the flush.
type batchApplier struct {
	s       *Store
	context string // "replay" or "replicate", for log lines
	op      byte
	rot     int // pending batch's rotation count (INSERT_TTL only)
	keys    [][]byte
}

const applierFlushAt = 4096

// add applies one record, or adds a key record to the pending batch.
func (a *batchApplier) add(op byte, payload []byte) error {
	r, e := &walRecords[op], a.s.walCtx
	switch {
	case r.name == "":
		return fmt.Errorf("unknown wal op 0x%02x", op)
	case r.targeted && r.mode != ns.Plain && e.Mode() != r.mode:
		return fmt.Errorf("%s record for %v namespace %q, which must be %v", r.name, e.Mode(), e.Name(), r.mode)
	case r.replay != nil:
		a.flush()
		var err error
		if r.targeted {
			err = a.s.residentLocked(e)
		}
		if err == nil {
			err = r.replay(a.s, e, payload)
		}
		if err != nil {
			return fmt.Errorf("%s record: %w", r.name, err)
		}
		return nil
	}
	rot := 0
	if op == walOpInsertTTL {
		if len(payload) < 4 {
			return errors.New("truncated INSERT_TTL record")
		}
		rot, payload = int(binary.LittleEndian.Uint32(payload)), payload[4:]
	}
	if op != a.op || rot != a.rot {
		a.flush()
		a.op, a.rot = op, rot
	}
	a.keys = append(a.keys, payload)
	if len(a.keys) >= applierFlushAt {
		a.flush()
	}
	return nil
}

// flush applies the pending batch to the selected filter. A named target
// may have been evicted mid-stream by quota pressure from another
// namespace's create — it is recovered first.
func (a *batchApplier) flush() {
	if len(a.keys) == 0 {
		return
	}
	e := a.s.walCtx
	err := a.s.residentLocked(e)
	if err == nil {
		sc := &a.s.applySc
		switch a.op {
		case wire.OpInsert:
			err = e.InsertBatch(a.keys, sc)
		case wire.OpDelete:
			_, err = e.DeleteBatch(a.keys, sc)
		case walOpInsertTTL:
			err = e.Window().InsertRotationsBatch(a.keys, a.rot, sc)
		}
	}
	if err != nil {
		a.s.opts.Log.Error("batch apply failed", "context", a.context, "ns", e.Name(), "record", walRecords[a.op].name, "error", err)
	}
	a.keys = a.keys[:0]
}
