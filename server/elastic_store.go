package server

import (
	"bytes"
	"errors"
	"fmt"

	mpcbf "repro"
	"repro/elastic"
	"repro/server/ns"
	"repro/server/wire"
	"repro/window"
)

// Elastic mode: when StoreOptions.Elastic is set, the default filter is
// an elastic.Filter — a chain of Sharded MPCBF generations that grows
// when the head saturates — instead of a single fixed-capacity filter,
// and a namespace created elastic is one too. Its WAL records,
// ELASTIC_GROW and ELASTIC_IMPORT, are rows of walRecords; keys logged
// before a growth event land in the pre-growth head on replay, or replay
// would spread them across generations the live filter never used.
//
// Growth ordering: the insert that trips the head's growth trigger
// (an insert batch's run: see insertRunsLocked) applies and enqueues
// first, then the GROW record — both under the mutation lock, in one
// commit round. The chain is therefore a pure function of the durable
// record sequence: a crash after the insert but before the GROW is
// durable replays to a head one insert fuller, recovery re-detects
// NeedsGrow on the next insert, and the regrown chain has the same
// geometry because generation geometry depends only on the growth index
// (see elastic.Filter.Grow).

// Elastic exposes the default elastic chain for read-only inspection
// (nil when the default filter is not elastic).
func (s *Store) Elastic() *elastic.Filter { return s.reg.Default().Elastic() }

var errNotElastic = errors.New("server: not an elastic store (start mpcbfd with -elastic)")

// notElastic is the error for an elastic-only op on name's filter when
// it is not an elastic chain.
func notElastic(name []byte) error {
	if len(name) == 0 {
		return errNotElastic
	}
	return fmt.Errorf("server: namespace %q is not elastic", name)
}

// growEnqLocked checks e's growth trigger after an insert has been
// applied and enqueued, and — when due — grows the chain and logs the
// GROW record. It returns the grow ticket (0 when nothing grew): the
// caller replaces its data ticket with it so the ack also covers the
// growth event. Errors are logged, not returned: the triggering insert
// already succeeded and must be acknowledged; a chain that failed to
// grow keeps absorbing inserts into its head and retries on the next
// one. Caller holds s.mu.
func (s *Store) growEnqLocked(e *ns.Entry) uint64 {
	el := e.Elastic()
	if el == nil || !el.NeedsGrow() {
		return 0
	}
	if err := el.Grow(); err != nil {
		s.opts.Log.Error("elastic grow failed", "ns", e.Name(), "error", err)
		return 0
	}
	ticket, err := s.logOneLocked(e, walOpElasticGrow, nil, nil)
	if err != nil {
		s.opts.Log.Error("elastic grow log failed", "ns", e.Name(), "error", err)
		return 0
	}
	s.rebaseLocked(e, "elastic growth")
	s.opts.Log.Info("elastic growth", "ns", e.Name(), "generations", el.Generations())
	return ticket
}

// insertRunsLocked applies an insert batch to e and logs one INSERT
// record per key. An elastic chain takes it in runs, each no longer
// than the head takes before its capacity trigger fires
// (elastic.Filter.Room), and each run's INSERT records are followed by
// its GROW record, so no generation takes more than its capacity
// however large the batch, and replay rebuilds the same chain. A plain
// or windowed filter, or a chain that did not grow after a run — at
// MaxGenerations, or after a failed Grow — takes the rest in one run.
// It returns the newest ticket any run or GROW produced. A failed run
// is not logged, but the runs before it stay applied and logged. Caller
// holds s.mu.
func (s *Store) insertRunsLocked(e *ns.Entry, keys [][]byte, sc *mpcbf.BatchScratch, tr *reqTrace) (uint64, error) {
	var ticket uint64
	for grew := e.Elastic() != nil; ; {
		run := keys
		if grew {
			run = keys[:min(len(keys), e.Elastic().Room())]
		}
		keys = keys[len(run):]
		t0 := tr.now()
		if err := e.InsertBatch(run, sc); err != nil {
			return 0, err
		}
		tr.addFilter(t0)
		t, err := s.logLocked(e, wire.OpInsert, nil, run, nil, tr)
		if err != nil {
			return 0, err
		}
		gt := s.growEnqLocked(e)
		ticket, grew = max(ticket, t, gt), gt != 0
		if len(keys) == 0 {
			return ticket, nil
		}
	}
}

// rebaseLocked folds a named chain's changed footprint into the
// registry's resident-byte accounting, then re-enforces the quota around
// it. The pinned default is outside both. Caller holds s.mu.
func (s *Store) rebaseLocked(e *ns.Entry, after string) {
	if e.Pinned() {
		return
	}
	s.reg.Rebase(e)
	if err := s.reg.EnsureQuota(e); err != nil {
		s.opts.Log.Warn("namespace quota after "+after, "ns", e.Name(), "error", err)
	}
}

// replayGrow replays an ELASTIC_GROW record into the selected chain and
// folds its new footprint into the quota, as growEnqLocked does.
func (s *Store) replayGrow(e *ns.Entry, _ []byte) error {
	if err := e.Elastic().Grow(); err != nil {
		return err
	}
	s.rebaseLocked(e, "elastic growth")
	return nil
}

// replayImport replays an ELASTIC_IMPORT record: the payload is the
// exact Sharded encoding the primary logged, spliced in as a frozen
// generation just below the head, and the chain's new footprint is
// folded into the quota, as importEnq does.
func (s *Store) replayImport(e *ns.Entry, blob []byte) error {
	g, err := mpcbf.UnmarshalSharded(blob)
	if err != nil {
		return err
	}
	e.Elastic().ImportGeneration(g)
	s.rebaseLocked(e, "import")
	return nil
}

// --- IMPORT (the resharding receive path) ---------------------------------

// importGen pairs a decoded generation with the exact bytes its WAL
// record will carry, so replay decodes the same bytes back.
type importGen struct {
	f    *mpcbf.Sharded
	blob []byte
}

// importGenerations decides what an IMPORT blob splices into the chain.
// A bare Sharded encoding becomes one frozen generation; a dumped
// elastic chain is flattened into one frozen generation per non-empty
// source generation (a chain import during resharding must not graft the
// source's growth schedule onto the destination's): the generations the
// chain's decode built are spliced as they are, each marshaled once for
// its record. Windowed state and namespace containers are refused: their
// keys carry expiry or tenancy the flat chain cannot represent.
func importGenerations(blob []byte) ([]importGen, error) {
	if isNsContainer(blob) {
		return nil, errors.New("server: IMPORT of a namespace container (dump one filter or one namespace)")
	}
	st, err := ns.DecodeState(bytes.NewReader(blob), int64(len(blob)), nil)
	if err != nil {
		return nil, fmt.Errorf("server: IMPORT blob: %w", err)
	}
	var gens []importGen
	switch src := st.(type) {
	case *window.Filter:
		return nil, errors.New("server: IMPORT of a windowed filter (its generations expire on the source's clock)")
	case *elastic.Filter:
		src.View(func(all []*mpcbf.Sharded) {
			for i, g := range all {
				if g.Len() == 0 {
					continue // an empty generation buys probe cost, not keys
				}
				b, merr := g.MarshalBinary()
				if merr != nil {
					gens, err = nil, fmt.Errorf("server: IMPORT generation %d: %w", i, merr)
					return
				}
				gens = append(gens, importGen{f: g, blob: b})
			}
		})
	case *mpcbf.Sharded:
		if src.Len() > 0 {
			gens = []importGen{{f: src, blob: blob}}
		}
	}
	return gens, err
}

// checkImportRecordSizes rejects an import whose generations would not
// fit in WAL records BEFORE anything is applied: an oversize record
// would append fine but be discarded as corruption at the next replay.
func checkImportRecordSizes(gens []importGen) error {
	for _, g := range gens {
		if 1+len(g.blob) > wireMaxWALRecord {
			return fmt.Errorf("server: imported generation (%d bytes) exceeds the %d-byte WAL record bound; reshard with smaller source generations", len(g.blob), wireMaxWALRecord)
		}
	}
	return nil
}

// Import splices a dumped filter into the default elastic chain as
// frozen generation(s), durably. The ack is the reshard handoff
// watermark: once Import returns nil, every imported key survives a
// crash here.
func (s *Store) Import(blob []byte) error { return s.wait(s.importEnq(nil, blob, nil)) }

// importEnq applies an import to name's chain and logs one
// ELASTIC_IMPORT record per generation, returning the last record's
// commit ticket (0 when the blob held no keys). The target must already
// exist and be elastic — an import must not lazily create a namespace
// whose geometry the source never saw.
func (s *Store) importEnq(name, blob []byte, tr *reqTrace) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.knownEntryLocked(name)
	if err != nil {
		return 0, err
	}
	el := e.Elastic()
	if el == nil {
		return 0, notElastic(name)
	}
	gens, err := importGenerations(blob)
	if err != nil {
		return 0, err
	}
	if err := checkImportRecordSizes(gens); err != nil {
		return 0, err
	}
	t0 := tr.now()
	var ticket uint64
	for _, g := range gens {
		el.ImportGeneration(g.f)
		tk, err := s.logOneLocked(e, walOpElasticImport, g.blob, tr)
		if err != nil {
			return 0, err
		}
		ticket = tk
	}
	tr.addFilter(t0)
	s.rebaseLocked(e, "import")
	return ticket, nil
}

// --- ELASTIC_STATS --------------------------------------------------------

// elasticWireStats converts the chain's stats into their wire shape.
func elasticWireStats(st elastic.Stats) wire.ElasticStats {
	out := wire.ElasticStats{
		Grows:     st.Grows,
		Imports:   st.Imports,
		TargetFPR: st.TargetFPR,
		Gens:      make([]wire.ElasticGenStats, len(st.Gens)),
	}
	for i, g := range st.Gens {
		out.Gens[i] = wire.ElasticGenStats{
			Items:      uint64(g.Items),
			Capacity:   uint64(g.Capacity),
			FillRatio:  g.FillRatio,
			Budget:     g.Budget,
			MemoryBits: uint64(g.MemoryBits),
			Imported:   g.Imported,
		}
	}
	return out
}

// elasticStats reports the chain shape of name's elastic filter
// (ELASTIC_STATS). It reads like every other read (readAs).
func (s *Store) elasticStats(name []byte) (wire.ElasticStats, error) {
	return readAs(s, name, notElastic, func(el *elastic.Filter) wire.ElasticStats {
		return elasticWireStats(el.Stats())
	})
}

// ElasticStats reports the default chain's shape. Elastic stores only.
func (s *Store) ElasticStats() (wire.ElasticStats, error) { return s.elasticStats(nil) }
