// Package ns is mpcbfd's multi-tenant namespace registry: thousands of
// independently configured MPCBF filters (plain, sliding-window or
// elastic) keyed by name, sharing one daemon, one WAL, and one
// replication stream.
//
// A Registry maps names to Entries. Each Entry owns one filter with its
// own geometry (memory, k, g, shards, seed) and optional window config,
// resolved at creation from the daemon's defaults plus per-namespace
// overrides; the resolved configuration is immutable for the life of
// the namespace and is what the store records in the WAL, so crash
// recovery and replicas rebuild identical geometry regardless of local
// defaults.
//
// Beside the named entries the registry holds one pinned Entry named
// "": the store's default filter. Lookup answers it without the map; it
// has no configuration (its mode is whatever state it holds), is never
// evicted or touched, and stays outside the quota and every listing.
//
// Entries move between two states:
//
//	resident  — filter state in memory; reads and writes are direct.
//	evicted   — state marshaled to a per-namespace snapshot file (via
//	            the Save callback) and dropped from memory; any touch
//	            recovers it transparently (Load callback + unmarshal).
//
// Eviction is local policy, never replicated: the registry enforces a
// daemon-wide resident-bytes quota by evicting the least recently
// touched entries, plus an optional idle timeout. A namespace's evict
// file is exact — an evicted namespace cannot receive mutations (a
// mutation is a touch, which recovers it first) — so evict-file bytes
// always equal the marshaled state at last evict.
//
// A recovery that has to evict to fit under the quota makes room first
// and decodes into the arenas its victims free, so churn between
// namespaces of one geometry allocates no filter memory. Creation keeps
// fresh memory, and idle eviction and drop leave theirs to the
// collector.
//
// Concurrency contract: Lookup and the read-side Entry methods are safe
// anytime; every state transition (Create, Drop, Evict, Recover,
// EnsureQuota, EvictIdle, InstallSnapshot) must be serialized by the
// caller — the store runs them under its own mutex, the same lock that
// orders WAL appends, so namespace lifecycle records interleave
// correctly with data records. A read of a named entry's filter words
// outside that mutex holds the entry's read pin (PinRead, released by
// Unpin), because eviction may hand the filter's arenas to the next
// recovery: it unpublishes the state under the pin's write side, which
// waits out every pinned reader, and only then releases them. Lock
// order is the caller's mutex, then a pin: a reader holding a pin must
// not wait for that mutex. The pinned default entry is never evicted,
// so its readers need no pin.
package ns
