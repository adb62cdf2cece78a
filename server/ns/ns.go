package ns

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	mpcbf "repro"
	"repro/elastic"
	"repro/internal/bitvec"
	"repro/internal/snapio"
	"repro/server/wire"
	"repro/window"
)

// Config is a namespace's resolved filter configuration. Window > 0
// makes the namespace a sliding-window filter of that span; Elastic
// makes it a generational elastic chain (repro/elastic) that grows
// past its seed capacity; otherwise it is a plain counting filter.
// The zero value of any field means "inherit the default" until
// Resolve fills it in.
type Config struct {
	MemoryBits     int
	ExpectedItems  int
	HashFunctions  int
	MemoryAccesses int
	Shards         int
	Seed           uint32
	Window         time.Duration
	Generations    int
	Elastic        bool
}

// Configuration bounds. Geometry arrives from the network (CREATE_NS),
// so resolved values are range-checked before any allocation: a hostile
// or buggy client must not be able to ask one namespace for a
// terabyte.
const (
	minMemoryBits = 64
	maxMemoryBits = 1 << 36 // 8 GiB of filter, per namespace
	maxItems      = 1 << 40
	maxHashFns    = 32
	maxAccesses   = 8
	maxShards     = 4096
	maxGens       = 64
)

// ConfigFromWire converts wire-level overrides to a Config.
func ConfigFromWire(c wire.NsConfig) Config {
	return Config{
		MemoryBits:     int(c.MemoryBits),
		ExpectedItems:  int(c.ExpectedItems),
		HashFunctions:  int(c.HashFunctions),
		MemoryAccesses: int(c.MemoryAccesses),
		Shards:         int(c.Shards),
		Seed:           c.Seed,
		Window:         time.Duration(c.WindowNanos),
		Generations:    int(c.Generations),
		Elastic:        c.Elastic(),
	}
}

// Wire converts a Config to its wire encoding (used when logging
// NS_CREATE records, which carry the resolved configuration).
func (c Config) Wire() wire.NsConfig {
	var flags uint8
	if c.Elastic {
		flags |= wire.NsFlagElastic
	}
	return wire.NsConfig{
		MemoryBits:     uint64(c.MemoryBits),
		ExpectedItems:  uint64(c.ExpectedItems),
		HashFunctions:  uint8(c.HashFunctions),
		MemoryAccesses: uint8(c.MemoryAccesses),
		Shards:         uint16(c.Shards),
		Seed:           c.Seed,
		WindowNanos:    uint64(max(c.Window, 0)),
		Generations:    uint16(c.Generations),
		Flags:          flags,
	}
}

// resolve fills zero fields from d.
func (c Config) resolve(d Config) Config {
	if c.MemoryBits == 0 {
		c.MemoryBits = d.MemoryBits
	}
	if c.ExpectedItems == 0 {
		c.ExpectedItems = d.ExpectedItems
	}
	if c.HashFunctions == 0 {
		c.HashFunctions = d.HashFunctions
	}
	if c.MemoryAccesses == 0 {
		c.MemoryAccesses = d.MemoryAccesses
	}
	if c.Shards == 0 {
		c.Shards = d.Shards
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Window == 0 {
		c.Window = d.Window
	}
	if c.Generations == 0 {
		c.Generations = d.Generations
	}
	if c.Window > 0 && c.Generations == 0 {
		c.Generations = 4
	}
	if !c.Elastic {
		c.Elastic = d.Elastic
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.MemoryBits < minMemoryBits || c.MemoryBits > maxMemoryBits:
		return fmt.Errorf("ns: memory bits %d outside [%d, %d]", c.MemoryBits, minMemoryBits, maxMemoryBits)
	case c.ExpectedItems < 1 || c.ExpectedItems > maxItems:
		return fmt.Errorf("ns: expected items %d outside [1, %d]", c.ExpectedItems, maxItems)
	case c.HashFunctions < 1 || c.HashFunctions > maxHashFns:
		return fmt.Errorf("ns: hash functions %d outside [1, %d]", c.HashFunctions, maxHashFns)
	case c.MemoryAccesses < 1 || c.MemoryAccesses > maxAccesses:
		return fmt.Errorf("ns: memory accesses %d outside [1, %d]", c.MemoryAccesses, maxAccesses)
	case c.Shards < 1 || c.Shards > maxShards:
		return fmt.Errorf("ns: shards %d outside [1, %d]", c.Shards, maxShards)
	case c.Window < 0:
		return fmt.Errorf("ns: negative window %v", c.Window)
	case c.Window > 0 && (c.Generations < 1 || c.Generations > maxGens):
		return fmt.Errorf("ns: generations %d outside [1, %d]", c.Generations, maxGens)
	case c.Elastic && c.Window > 0:
		return errors.New("ns: a namespace cannot be both elastic and windowed (growth would duplicate keys across expiring generations)")
	}
	return nil
}

// Windowed reports whether the configuration describes a sliding-window
// namespace.
func (c Config) Windowed() bool { return c.Window > 0 }

// elasticOptions derives the elastic chain configuration: the resolved
// filter geometry seeds generation 0 and the chain target FPR derives
// from it (the elastic package's default).
func (c Config) elasticOptions() elastic.Options {
	return elastic.Options{
		Filter: c.filterOptions(),
		Shards: c.Shards,
	}
}

func (c Config) filterOptions() mpcbf.Options {
	return mpcbf.Options{
		MemoryBits:     c.MemoryBits,
		ExpectedItems:  c.ExpectedItems,
		HashFunctions:  c.HashFunctions,
		MemoryAccesses: c.MemoryAccesses,
		Seed:           c.Seed,
	}
}

// Errors returned by registry operations.
var (
	ErrExists      = errors.New("ns: namespace already exists")
	ErrNotResident = errors.New("ns: namespace not resident")
)

// Entry is one namespace: its resolved configuration plus its filter
// state, which is either resident or evicted (state in the evict file).
// The state sits behind one atomic pointer, so every transition — evict,
// recover, or a replica bootstrap replacing the default filter — is a
// single store, and lock-free reads see the old state or the new one,
// never neither. Transitions are serialized by the registry's caller.
//
// A read of a named entry's filter outside the caller's lock holds the
// entry's read pin (PinRead), because eviction may hand the filter's
// storage to the namespace a recovery decodes next, and eviction and
// drop zero it: both unpublish the state under the pin's write side,
// which waits out every pinned reader, and only then release the
// storage.
//
// The registry's pinned entry, named "", is the store's default filter.
// It has no configuration — its mode is whatever state it holds — is
// never evicted, and stays outside the quota, the LRU and every listing;
// its readers need no read pin.
type Entry struct {
	name     string
	wireName []byte // [u8 len][name]: the WAL body of this namespace's SELECT/DROP records
	cfg      Config
	pinned   bool

	state atomic.Pointer[resident]
	pin   sync.RWMutex // read side: a read of state outside the caller's lock; write side: eviction and drop

	memBytes   int64        // resident footprint (set at attach; elastic growth updates it via Rebase)
	lastTouch  atomic.Int64 // UnixNano of last access, the LRU key
	nextRotate atomic.Int64 // windowed: UnixNano of the next due rotation (primary's ticker)
	items      atomic.Int64 // element count at last marshal (authoritative while evicted)
	evictions  atomic.Uint64
	recoveries atomic.Uint64
}

func newEntry(name string, cfg Config) *Entry {
	wn := make([]byte, 0, 1+len(name))
	wn = append(wn, byte(len(name)))
	wn = append(wn, name...)
	return &Entry{name: name, wireName: wn, cfg: cfg}
}

// Name returns the namespace name ("" for the pinned default).
func (e *Entry) Name() string { return e.name }

// WALName returns the [u8 len][name] block used as the body of this
// namespace's WAL records. Callers must not mutate it.
func (e *Entry) WALName() []byte { return e.wireName }

// Config returns the resolved configuration (zero for the pinned
// default).
func (e *Entry) Config() Config { return e.cfg }

// Pinned reports whether this is the registry's pinned default entry.
func (e *Entry) Pinned() bool { return e.pinned }

// Windowed reports whether this is a sliding-window namespace. A named
// entry's mode is its configuration; the pinned default's is its state.
func (e *Entry) Windowed() bool { return e.cfg.Windowed() || e.Window() != nil }

// IsElastic reports whether this is an elastic-chain namespace.
func (e *Entry) IsElastic() bool { return e.cfg.Elastic || e.Elastic() != nil }

// Resident reports whether filter state is in memory.
func (e *Entry) Resident() bool { return e.state.Load() != nil }

// State returns the resident state (the zero State when evicted).
func (e *Entry) State() State {
	if r := e.state.Load(); r != nil {
		return r.State
	}
	return State{}
}

// Filter returns the resident plain filter, or nil.
func (e *Entry) Filter() *mpcbf.Sharded { return e.State().Filter }

// Window returns the resident window filter, or nil.
func (e *Entry) Window() *window.Filter { return e.State().Window }

// Elastic returns the resident elastic chain, or nil.
func (e *Entry) Elastic() *elastic.Filter { return e.State().Elastic }

// Touch records an access at now (UnixNano) for LRU/idle accounting.
func (e *Entry) Touch(now int64) { e.lastTouch.Store(now) }

// NextRotate returns the UnixNano deadline of the next due rotation
// (windowed namespaces on a primary; 0 when unset).
func (e *Entry) NextRotate() int64 { return e.nextRotate.Load() }

// SetNextRotate sets the rotation deadline.
func (e *Entry) SetNextRotate(at int64) { e.nextRotate.Store(at) }

// Insert adds key. The caller must hold the store lock (which excludes
// eviction), so non-residency is a bug, not a race.
func (e *Entry) Insert(key []byte) error {
	r := e.state.Load()
	if r == nil {
		return ErrNotResident
	}
	return r.f.Insert(key)
}

// Delete removes one occurrence of key.
func (e *Entry) Delete(key []byte) error {
	r := e.state.Load()
	if r == nil {
		return ErrNotResident
	}
	return r.f.Delete(key)
}

// InsertBatch adds keys: planned in sc outside the shard locks, then
// applied taking each shard's lock once (mpcbf.Sharded.InsertBatchInto).
func (e *Entry) InsertBatch(keys [][]byte, sc *mpcbf.BatchScratch) error {
	r := e.state.Load()
	if r == nil {
		return ErrNotResident
	}
	return r.f.InsertBatchInto(keys, sc)
}

// DeleteBatch removes keys, planned in sc, reporting per-key success in
// flags that belong to sc.
func (e *Entry) DeleteBatch(keys [][]byte, sc *mpcbf.BatchScratch) ([]bool, error) {
	r := e.state.Load()
	if r == nil {
		return nil, ErrNotResident
	}
	return r.f.DeleteBatchInto(keys, sc)
}

// Live returns the pinned default entry's filter for a lock-free read.
// The default is never evicted, so its reads take no pin; a named
// entry's reads go through PinRead.
func (e *Entry) Live() Filter {
	if r := e.state.Load(); r != nil {
		return r.f
	}
	return nil
}

// PinRead returns the resident filter with e's read pin held, or nil,
// holding nothing, when e is evicted: the caller must then recover it
// and retry — answering from nothing would be a false negative. Until
// the caller releases the pin with Unpin, neither eviction nor drop can
// zero the filter's storage or hand it to another namespace. A pinned
// reader must not wait for anything that evicts or drops. The pinned
// default, never evicted, needs no pin on its hot paths (Live), but
// taking one is harmless.
func (e *Entry) PinRead() Filter {
	e.pin.RLock()
	if r := e.state.Load(); r != nil {
		return r.f
	}
	e.pin.RUnlock()
	return nil
}

// Unpin releases the read pin PinRead returned a filter under. A nil
// entry holds no pin.
func (e *Entry) Unpin() {
	if e != nil {
		e.pin.RUnlock()
	}
}

// Len returns the element count: live when resident, the count at last
// marshal when evicted (exact — an evicted namespace cannot mutate).
func (e *Entry) Len() int {
	if r := e.state.Load(); r != nil {
		return r.f.Len()
	}
	return int(e.items.Load())
}

// Marshal serializes the resident filter state.
func (e *Entry) Marshal() ([]byte, error) {
	r := e.state.Load()
	if r == nil {
		return nil, ErrNotResident
	}
	return r.f.MarshalBinary()
}

// MarshaledSize returns the length of Marshal's encoding (0 when
// evicted).
func (e *Entry) MarshaledSize() int {
	if r := e.state.Load(); r != nil {
		return r.f.MarshaledSize()
	}
	return 0
}

// Encode writes Marshal's encoding of the resident state to w.
func (e *Entry) Encode(w *snapio.Writer) error {
	r := e.state.Load()
	if r == nil {
		return ErrNotResident
	}
	r.f.Encode(w)
	return nil
}

// Stats summarizes the entry for NS_STATS.
func (e *Entry) Stats() wire.NsStats {
	memBits := uint64(e.cfg.MemoryBits)
	if e.cfg.Windowed() {
		memBits *= uint64(e.cfg.Generations)
	}
	// An elastic chain's footprint is live state, not config: it grows.
	// The pinned default has no config, so its footprint is always live.
	if r := e.state.Load(); r != nil && (r.Elastic != nil || e.pinned) {
		memBits = uint64(r.f.MemoryBits())
	}
	return wire.NsStats{
		Resident:   e.Resident(),
		Windowed:   e.Windowed(),
		Items:      uint64(e.Len()),
		MemoryBits: memBits,
		Evictions:  e.evictions.Load(),
		Recoveries: e.recoveries.Load(),
	}
}

// State is one namespace's (or the default filter's) filter state in
// any of the three modes: exactly one field is non-nil.
type State struct {
	Filter  *mpcbf.Sharded
	Window  *window.Filter
	Elastic *elastic.Filter
}

// Filter is the method set the three kinds of state share.
type Filter interface {
	Insert(key []byte) error
	Delete(key []byte) error
	InsertBatchInto(keys [][]byte, sc *mpcbf.BatchScratch) error
	DeleteBatchInto(keys [][]byte, sc *mpcbf.BatchScratch) ([]bool, error)
	Contains(key []byte) bool
	ContainsBatchInto(keys [][]byte, sc *mpcbf.BatchScratch) []bool
	EstimateCount(key []byte) int
	Len() int
	MarshalBinary() ([]byte, error)
	MarshaledSize() int
	Encode(w *snapio.Writer)
	MemoryBits() int
	ReleaseArenas(put func(words []uint64))
}

// resident is a published state together with its filter behind the
// shared method set, resolved once when the state is published.
type resident struct {
	State
	f Filter
}

func newResident(st State) *resident {
	r := &resident{State: st}
	switch {
	case st.Filter != nil:
		r.f = st.Filter
	case st.Window != nil:
		r.f = st.Window
	default:
		r.f = st.Elastic
	}
	return r
}

// DecodeState decodes exactly n bytes of r as whichever state its leading
// magic names: a windowed ring, an elastic chain, or a plain sharded
// filter.
func DecodeState(r io.Reader, n int64) (State, error) { return readState(r, n, false, nil) }

// CheckState reads a state of exactly n bytes from r and fails exactly
// when DecodeState would, building nothing, so checking a state of any
// size costs a fixed amount of memory.
func CheckState(r io.Reader, n int64) error {
	_, err := readState(r, n, true, nil)
	return err
}

// readState is DecodeState building the state's arenas in words taken
// from a, or with check set CheckState, which returns the zero State.
func readState(r io.Reader, n int64, check bool, a *mpcbf.Arenas) (State, error) {
	rd := snapio.From(r, n)
	magic := rd.Peek(4)
	var st State
	var err error
	switch {
	case window.IsWindowed(magic) && check:
		err = window.CheckFilter(rd, n)
	case window.IsWindowed(magic):
		st.Window, err = window.ReadFilterReusing(rd, n, a)
	case elastic.IsElastic(magic) && check:
		err = elastic.CheckFilter(rd, n)
	case elastic.IsElastic(magic):
		st.Elastic, err = elastic.ReadFilterReusing(rd, n, a)
	case check:
		err = mpcbf.CheckSharded(rd, n)
	default:
		st.Filter, err = mpcbf.ReadShardedReusing(rd, n, a)
	}
	return st, err
}

// attachFresh builds and attaches empty filter state.
func (e *Entry) attachFresh() error {
	var st State
	var err error
	switch {
	case e.cfg.Elastic:
		st.Elastic, err = elastic.New(e.cfg.elasticOptions())
	case e.cfg.Windowed():
		st.Window, err = window.New(window.Options{
			Span:        e.cfg.Window,
			Generations: e.cfg.Generations,
			Filter:      e.cfg.filterOptions(),
			Shards:      e.cfg.Shards,
		})
	default:
		st.Filter, err = mpcbf.NewSharded(e.cfg.filterOptions(), e.cfg.Shards)
	}
	if err != nil {
		return fmt.Errorf("ns %q: %w", e.name, err)
	}
	return e.attach(st)
}

// attach installs decoded state, checking that its mode matches the
// configuration.
func (e *Entry) attach(st State) error {
	switch {
	case st.Elastic != nil && !e.cfg.Elastic:
		return fmt.Errorf("ns %q: elastic state for a non-elastic namespace", e.name)
	case st.Elastic == nil && e.cfg.Elastic:
		return fmt.Errorf("ns %q: non-elastic state for an elastic namespace", e.name)
	case st.Window != nil && !e.cfg.Windowed():
		return fmt.Errorf("ns %q: windowed state for a non-windowed namespace", e.name)
	case st.Window == nil && e.cfg.Windowed():
		return fmt.Errorf("ns %q: non-windowed state for a windowed namespace", e.name)
	}
	r := newResident(st)
	e.memBytes = int64(r.f.MemoryBits() / 8)
	e.state.Store(r)
	return nil
}

// unpublish stores e's nil state under the write side of its read pin,
// which waits out every reader holding the pin, and returns the state it
// replaced (nil if e was not resident): once it returns, nothing reads
// that state's arenas.
func (e *Entry) unpublish() *resident {
	e.pin.Lock()
	defer e.pin.Unlock()
	return e.state.Swap(nil)
}

// Replace publishes st (exactly one field non-nil) as the pinned default
// entry's state in one atomic store.
func (e *Entry) Replace(st State) { e.state.Store(newResident(st)) }

// Options configures a Registry.
type Options struct {
	// Defaults fills zero fields of per-namespace overrides; its own
	// zero fields get hard fallbacks (2 MiB-bit filter, 10k items, the
	// paper's k=3 g=1 geometry, 4 shards).
	Defaults Config
	// Quota bounds the summed resident bytes of all named namespaces
	// (the pinned default is outside it). <= 0: unlimited.
	Quota int64
	// IdleAfter is the idle-eviction horizon surfaced via IdleCutoff;
	// <= 0 disables idle eviction.
	IdleAfter time.Duration
	// Save persists an evicted namespace's state, which encode streams
	// into the writer it is given, and reports encode's error or its own;
	// Load streams it back into decode (an n-byte reader) and reports
	// decode's error, or its own when the saved bytes fail their
	// checksum; Remove deletes it (DROP_NS). All required.
	Save   func(name string, encode func(w *snapio.Writer) error) error
	Load   func(name string, decode func(r io.Reader, n int64) error) error
	Remove func(name string) error
	// Log receives eviction/recovery events. nil: slog.Default().
	Log *slog.Logger
	// Now is the clock (tests); nil: time.Now.
	Now func() time.Time
}

// Registry is the namespace map plus quota accounting, and the pinned
// default entry. See the package comment for the concurrency contract.
type Registry struct {
	opts Options

	pinned  *Entry
	mu      sync.RWMutex // guards entries; transitions additionally serialized by the caller
	entries map[string]*Entry

	residentBytes atomic.Int64
	evictions     atomic.Uint64
	recoveries    atomic.Uint64
	reusedBytes   atomic.Uint64 // arena bytes recoveries took from their victims

	rotateKick chan struct{}
}

// NewRegistry builds a registry holding only the pinned default entry,
// which has no state until the caller Replaces it.
func NewRegistry(opts Options) *Registry {
	d := &opts.Defaults
	if d.MemoryBits == 0 {
		d.MemoryBits = 1 << 21
	}
	if d.ExpectedItems == 0 {
		d.ExpectedItems = 10_000
	}
	if d.HashFunctions == 0 {
		d.HashFunctions = 3
	}
	if d.MemoryAccesses == 0 {
		d.MemoryAccesses = 1
	}
	if d.Shards == 0 {
		d.Shards = 4
	}
	if d.Window > 0 && d.Generations == 0 {
		d.Generations = 4
	}
	if opts.Log == nil {
		opts.Log = slog.Default()
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	pinned := newEntry("", Config{})
	pinned.pinned = true
	return &Registry{
		opts:       opts,
		pinned:     pinned,
		entries:    make(map[string]*Entry),
		rotateKick: make(chan struct{}, 1),
	}
}

// Resolve fills zero fields of override from the defaults and validates
// the result. The resolved Config is what must be logged to the WAL so
// replay is independent of local defaults.
func (r *Registry) Resolve(override Config) (Config, error) {
	c := override.resolve(r.opts.Defaults)
	if err := c.validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Now returns the registry clock's UnixNano.
func (r *Registry) Now() int64 { return r.opts.Now().UnixNano() }

// Quota returns the configured resident-bytes quota (<= 0: unlimited).
func (r *Registry) Quota() int64 { return r.opts.Quota }

// IdleAfter returns the idle-eviction horizon (<= 0: disabled).
func (r *Registry) IdleAfter() time.Duration { return r.opts.IdleAfter }

// ResidentBytes returns the summed resident footprint of named
// namespaces.
func (r *Registry) ResidentBytes() int64 { return r.residentBytes.Load() }

// Len returns the number of named namespaces (resident or evicted).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Default returns the pinned default entry.
func (r *Registry) Default() *Entry { return r.pinned }

// Lookup returns the entry named by name — the pinned default for the
// empty name, without touching the map — or nil. Safe anytime.
func (r *Registry) Lookup(name []byte) *Entry {
	if len(name) == 0 {
		return r.pinned
	}
	return r.named(name)
}

func (r *Registry) named(name []byte) *Entry {
	r.mu.RLock()
	e := r.entries[string(name)]
	r.mu.RUnlock()
	return e
}

// Names returns all namespace names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Entries returns all named entries, sorted by name.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	es := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	r.mu.RUnlock()
	sort.Slice(es, func(i, j int) bool { return es[i].name < es[j].name })
	return es
}

// Create makes a new resident namespace with an already-resolved
// configuration. The caller is responsible for quota enforcement
// (EnsureQuota) afterwards, so the new entry itself is never the
// victim.
func (r *Registry) Create(name string, cfg Config) (*Entry, error) {
	if err := wire.ValidateNamespace(name); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if r.Lookup([]byte(name)) != nil {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	e := newEntry(name, cfg)
	if err := e.attachFresh(); err != nil {
		return nil, err
	}
	e.Touch(r.Now())
	r.mu.Lock()
	r.entries[name] = e
	r.mu.Unlock()
	r.residentBytes.Add(e.memBytes)
	r.KickRotate(e)
	return e, nil
}

// Drop removes a namespace and deletes its evict file. A resident
// state is unpublished under the read pin, as eviction does, and its
// arenas' pages go back to the kernel (bitvec.Zero). Returns the removed
// entry, or nil if the name was unknown.
func (r *Registry) Drop(name []byte) *Entry {
	r.mu.Lock()
	e := r.entries[string(name)]
	delete(r.entries, string(name))
	r.mu.Unlock()
	if e == nil {
		return nil
	}
	if res := e.unpublish(); res != nil {
		r.residentBytes.Add(-e.memBytes)
		res.f.ReleaseArenas(bitvec.Zero)
	}
	if err := r.opts.Remove(e.name); err != nil {
		r.opts.Log.Warn("ns evict file remove failed", "ns", e.name, "error", err)
	}
	return e
}

// Evict streams e's state into its evict file and drops it from memory,
// giving the pages of its arenas back to the kernel (bitvec.Zero) and
// the rest of its storage to the collector.
func (r *Registry) Evict(e *Entry) error { return r.evict(e, bitvec.Zero) }

// evict is Evict handing the state's arenas to put instead. The state is
// unpublished first (unpublish), and only then are its arenas released:
// no reader can see them zeroed or overwritten.
func (r *Registry) evict(e *Entry, put func(words []uint64)) error {
	res := e.state.Load()
	if res == nil {
		return nil
	}
	e.items.Store(int64(res.f.Len()))
	if err := r.opts.Save(e.name, e.Encode); err != nil {
		return fmt.Errorf("ns %q: save for evict: %w", e.name, err)
	}
	e.unpublish()
	res.f.ReleaseArenas(put)
	r.residentBytes.Add(-e.memBytes)
	e.evictions.Add(1)
	r.evictions.Add(1)
	r.opts.Log.Debug("namespace evicted", "ns", e.name, "bytes", e.memBytes)
	return nil
}

// Recover loads an evicted entry's state back into memory. Under a quota
// it makes room first: it evicts least-recently-touched entries (never e)
// until e's footprint fits, and decodes e's state into the arenas they
// release, so churn between namespaces of one geometry allocates no
// filter memory. The released arenas are zeroed with their pages given
// back to the kernel (mpcbf.Arenas.Put), so the decode makes resident
// only the pages e's state writes; arenas it does not take are left to
// the collector. A recovery that fails after evicting leaves its victims
// evicted. The caller runs EnsureQuota(e) afterwards, for a footprint
// that differs from the one made room for.
func (r *Registry) Recover(e *Entry) error {
	if e.Resident() {
		return nil
	}
	var free mpcbf.Arenas
	for need := e.footprint(); r.opts.Quota > 0 && r.residentBytes.Load()+need > r.opts.Quota; {
		victim := r.oldestResident(e)
		if victim == nil {
			break
		}
		if err := r.evict(victim, free.Put); err != nil {
			return err
		}
	}
	var st State
	err := r.opts.Load(e.name, func(rd io.Reader, n int64) (err error) {
		st, err = readState(rd, n, false, &free)
		return err
	})
	if err != nil {
		return fmt.Errorf("ns %q: load for recover: %w", e.name, err)
	}
	if err := e.attach(st); err != nil {
		return err
	}
	r.residentBytes.Add(e.memBytes)
	r.reusedBytes.Add(uint64(free.Reused()))
	e.recoveries.Add(1)
	r.recoveries.Add(1)
	e.Touch(r.Now())
	if e.Windowed() {
		e.SetNextRotate(r.opts.Now().Add(e.Window().RotateEvery()).UnixNano())
	}
	r.KickRotate(e)
	r.opts.Log.Debug("namespace recovered", "ns", e.name, "bytes", e.memBytes)
	return nil
}

// footprint returns the bytes e takes once resident: what it took when
// last resident or, if it never was in this process, what its
// configuration sizes (for an elastic chain, the seed generation).
func (e *Entry) footprint() int64 {
	if e.memBytes > 0 {
		return e.memBytes
	}
	n := int64(e.cfg.MemoryBits / 8)
	if e.cfg.Windowed() {
		n *= int64(e.cfg.Generations)
	}
	return n
}

// Rebase recomputes a named elastic entry's resident footprint from its
// live chain — called after growth or a generation import changed the
// chain's memory — and folds the delta into the registry's
// resident-bytes accounting. No-op for the pinned default and for
// non-elastic or evicted entries.
func (r *Registry) Rebase(e *Entry) {
	el := e.Elastic()
	if el == nil || e.pinned {
		return
	}
	nb := int64(el.MemoryBits() / 8)
	r.residentBytes.Add(nb - e.memBytes)
	e.memBytes = nb
}

// EnsureQuota evicts least-recently-touched resident entries (never
// keep) until resident bytes fit the quota. A single entry over quota
// by itself stays resident: the quota bounds the aggregate, residency
// of the active namespace is not negotiable.
func (r *Registry) EnsureQuota(keep *Entry) error {
	if r.opts.Quota <= 0 {
		return nil
	}
	for r.residentBytes.Load() > r.opts.Quota {
		victim := r.oldestResident(keep)
		if victim == nil {
			return nil
		}
		if err := r.Evict(victim); err != nil {
			return err
		}
	}
	return nil
}

func (r *Registry) oldestResident(skip *Entry) *Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var victim *Entry
	var oldest int64
	for _, e := range r.entries {
		if e == skip || !e.Resident() {
			continue
		}
		if t := e.lastTouch.Load(); victim == nil || t < oldest {
			victim, oldest = e, t
		}
	}
	return victim
}

// EvictIdle evicts every resident entry untouched since cutoff
// (UnixNano), returning how many were evicted.
func (r *Registry) EvictIdle(cutoff int64) (int, error) {
	var idle []*Entry
	r.mu.RLock()
	for _, e := range r.entries {
		if e.Resident() && e.lastTouch.Load() < cutoff {
			idle = append(idle, e)
		}
	}
	r.mu.RUnlock()
	for i, e := range idle {
		if err := r.Evict(e); err != nil {
			return i, err
		}
	}
	return len(idle), nil
}

// InstallSnapshot recreates a namespace during recovery or replica
// bootstrap from a snapshot container record: resolved config,
// items-at-marshal, and the decoded state of a resident entry (the zero
// State for an evicted one). The caller must already have rewritten an
// evicted entry's evict file from the snapshot's embedded bytes —
// mandatory, not an optimization: WAL-tail replay assumes every
// namespace starts in its snapshot state, and a local evict file
// written after the snapshot may already include tail mutations.
func (r *Registry) InstallSnapshot(name string, cfg Config, st State, items uint64) error {
	if err := wire.ValidateNamespace(name); err != nil {
		return err
	}
	if err := cfg.validate(); err != nil {
		return fmt.Errorf("ns %q: %w", name, err)
	}
	if r.Lookup([]byte(name)) != nil {
		return fmt.Errorf("%w: %q (duplicate in snapshot)", ErrExists, name)
	}
	e := newEntry(name, cfg)
	if st != (State{}) {
		if err := e.attach(st); err != nil {
			return err
		}
		r.residentBytes.Add(e.memBytes)
	} else {
		e.items.Store(int64(items))
	}
	e.Touch(r.Now())
	r.mu.Lock()
	r.entries[name] = e
	r.mu.Unlock()
	r.KickRotate(e)
	return nil
}

// Reset drops every named entry without touching evict files (replica
// bootstrap wipes the files itself before reinstalling).
func (r *Registry) Reset() {
	r.mu.Lock()
	r.entries = make(map[string]*Entry)
	r.mu.Unlock()
	r.residentBytes.Store(0)
}

// RotateKick signals that a windowed entry became resident (created or
// recovered), so the rotation loop re-evaluates its earliest deadline.
func (r *Registry) RotateKick() <-chan struct{} { return r.rotateKick }

// KickRotate wakes the rotation loop if e is a resident windowed entry,
// first scheduling its next rotation one period out if it has none.
func (r *Registry) KickRotate(e *Entry) {
	w := e.Window()
	if w == nil {
		return
	}
	if e.NextRotate() == 0 {
		e.SetNextRotate(r.opts.Now().Add(w.RotateEvery()).UnixNano())
	}
	select {
	case r.rotateKick <- struct{}{}:
	default:
	}
}

// NextRotation returns the resident windowed entry — the pinned default
// included — with the earliest rotation deadline, or ok == false when
// there is none.
func (r *Registry) NextRotation() (e *Entry, at int64, ok bool) {
	consider := func(c *Entry) {
		if c.Window() == nil {
			return
		}
		if t := c.NextRotate(); !ok || t < at {
			e, at, ok = c, t, true
		}
	}
	consider(r.pinned)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.entries {
		consider(c)
	}
	return e, at, ok
}

// Totals aggregates registry-wide counters for observability.
type Totals struct {
	Count         int    `json:"count"`
	Resident      int    `json:"resident"`
	QuotaBytes    int64  `json:"quota_bytes"`
	ResidentBytes int64  `json:"resident_bytes"`
	Evictions     uint64 `json:"evictions"`
	Recoveries    uint64 `json:"recoveries"`
	// ReusedBytes counts the bytes recoveries took from the arenas of the
	// namespaces they evicted instead of allocating.
	ReusedBytes uint64 `json:"reused_bytes"`
}

// EntrySnapshot is one namespace's observable state.
type EntrySnapshot struct {
	Name        string `json:"name"`
	Items       uint64 `json:"items"`
	MemoryBytes uint64 `json:"memory_bytes"`
	Resident    bool   `json:"resident"`
	Windowed    bool   `json:"windowed"`
	Elastic     bool   `json:"elastic"`
	Generations int    `json:"generations,omitempty"` // elastic chain length (resident only)
	Evictions   uint64 `json:"evictions"`
	Recoveries  uint64 `json:"recoveries"`
}

// Snapshot captures every named entry plus the aggregate counters,
// sorted by name.
func (r *Registry) Snapshot() ([]EntrySnapshot, Totals) {
	es := r.Entries()
	t := Totals{
		Count:         len(es),
		QuotaBytes:    r.opts.Quota,
		ResidentBytes: r.residentBytes.Load(),
		Evictions:     r.evictions.Load(),
		Recoveries:    r.recoveries.Load(),
		ReusedBytes:   r.reusedBytes.Load(),
	}
	out := make([]EntrySnapshot, 0, len(es))
	for _, e := range es {
		st := e.Stats()
		if st.Resident {
			t.Resident++
		}
		gens := 0
		if el := e.Elastic(); el != nil {
			gens = el.Generations()
		}
		out = append(out, EntrySnapshot{
			Name:        e.name,
			Items:       st.Items,
			MemoryBytes: st.MemoryBits / 8,
			Resident:    st.Resident,
			Windowed:    st.Windowed,
			Elastic:     e.cfg.Elastic,
			Generations: gens,
			Evictions:   st.Evictions,
			Recoveries:  st.Recoveries,
		})
	}
	return out, t
}
