package server

import (
	"fmt"
	"io"
	"testing"

	mpcbf "repro"
	"repro/server/wire"
)

// Benchmarks for the serving hot path: store-level ops (filter + WAL)
// and the server dispatch loop. These are the before/after pair for any
// change that touches the request path — observability instrumentation
// in particular must stay atomics/branch-only when sampling is off, and
// these numbers prove it.

func benchStoreSync(b *testing.B, sync SyncPolicy) *Store {
	b.Helper()
	st, err := OpenStore(StoreOptions{
		Dir: b.TempDir(),
		Filter: mpcbf.Options{
			MemoryBits:    1 << 23,
			ExpectedItems: 200_000,
		},
		Shards: 8,
		Sync:   sync,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

func benchStore(b *testing.B) *Store {
	return benchStoreSync(b, SyncNever) // isolate CPU cost from disk
}

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%08d", i))
	}
	return keys
}

// The insert+delete cost splits into an append-only variant (SyncNever:
// pure CPU — filter, WAL framing, committer handoff) and an
// fsync-dominated one (SyncAlways: each iteration pays a synchronous
// commit round). The pair attributes the mutation/read gap: before group
// commit the SyncAlways number WAS the per-connection mutation ceiling;
// with group commit it is only the single-connection floor — see the
// saturation benchmark for the concurrent throughput this unlocks.
func BenchmarkStoreInsertDeleteSyncNever(b *testing.B) {
	benchStoreInsertDelete(b, SyncNever)
}

func BenchmarkStoreInsertDeleteSyncAlways(b *testing.B) {
	benchStoreInsertDelete(b, SyncAlways)
}

func benchStoreInsertDelete(b *testing.B, sync SyncPolicy) {
	st := benchStoreSync(b, sync)
	keys := benchKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if err := st.Insert(k); err != nil {
			b.Fatal(err)
		}
		if err := st.Delete(k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreContains(b *testing.B) {
	st := benchStore(b)
	keys := benchKeys(4096)
	for _, k := range keys[:2048] {
		if err := st.Insert(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Contains(keys[i%len(keys)])
	}
}

// BenchmarkDispatch runs decoded requests through the server dispatch
// path (store op + response encode), the full per-request CPU cost minus
// the socket.
func BenchmarkDispatchContains(b *testing.B) {
	st := benchStore(b)
	srv := New(st, Config{}, nil)
	keys := benchKeys(4096)
	for _, k := range keys[:2048] {
		if err := st.Insert(k); err != nil {
			b.Fatal(err)
		}
	}
	var resp []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := wire.Request{Op: wire.OpContains, Key: keys[i%len(keys)]}
		resp, _, _ = srv.dispatch(req, resp[:0], nil, nil)
	}
}

// BenchmarkDispatchNsContains is BenchmarkDispatchContains on a named
// namespace of the default filter's geometry: the difference is the
// namespace lookup and the entry's read pin, held around the probe.
func BenchmarkDispatchNsContains(b *testing.B) {
	st := benchStore(b)
	srv := New(st, Config{}, nil)
	name := []byte("bench-ns")
	if _, err := st.nsCreateEnq(name, wire.NsConfig{MemoryBits: 1 << 23, ExpectedItems: 200_000, Shards: 8}, nil); err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(4096)
	_, ticket, err := st.mutateEnq(wire.OpInsertBatch, name, nil, keys[:2048], 0, nil, nil)
	if err := st.wait(ticket, err); err != nil {
		b.Fatal(err)
	}
	var resp []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := wire.Request{Op: wire.OpContains, NS: name, Key: keys[i%len(keys)]}
		resp, _, _ = srv.dispatch(req, resp[:0], nil, nil)
	}
}

func BenchmarkDispatchInsertDelete(b *testing.B) {
	st := benchStore(b)
	srv := New(st, Config{}, nil)
	keys := benchKeys(4096)
	var resp []byte
	var tkt uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		resp, tkt, _ = srv.dispatch(wire.Request{Op: wire.OpInsert, Key: k}, resp[:0], nil, nil)
		if err := st.waitDurable(tkt, nil); err != nil {
			b.Fatal(err)
		}
		resp, tkt, _ = srv.dispatch(wire.Request{Op: wire.OpDelete, Key: k}, resp[:0], nil, nil)
		if err := st.waitDurable(tkt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsScrape times one /metrics rendering on the benchmark
// store's 2^23-bit default filter: a snapshot that reads every word
// once, in registers, plus the text exposition.
func BenchmarkMetricsScrape(b *testing.B) {
	st := benchStore(b)
	if err := st.InsertBatch(benchKeys(100_000)); err != nil {
		b.Fatal(err)
	}
	srv := New(st, Config{}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.WriteProm(io.Discard)
	}
}

// BenchmarkStoreSnapshotHold times how long a snapshot holds s.mu, the
// lock every mutation takes: the WAL rotation and the state's streamed
// write into the snapshot's temp file (Store.cut). The fsync, rename
// and cleanup that follow outside the lock are excluded. It runs on a
// 1 MiB default filter and, without -short, on a 2^30-bit (128 MiB) one.
func BenchmarkStoreSnapshotHold(b *testing.B) {
	for _, size := range []struct {
		name string
		bits int
	}{{"1MiB", 1 << 23}, {"128MiB", 1 << 30}} {
		b.Run(size.name, func(b *testing.B) {
			if size.bits > 1<<23 && testing.Short() {
				b.Skip("the 128 MiB filter runs without -short")
			}
			st, err := OpenStore(StoreOptions{
				Dir:    b.TempDir(),
				Filter: mpcbf.Options{MemoryBits: size.bits, ExpectedItems: size.bits / 64},
				Shards: 16,
				Sync:   SyncNever,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { st.Close() })
			if err := st.InsertBatch(benchKeys(min(size.bits/256, 1<<16))); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tmp, seq, _, _, err := st.cut()
				b.StopTimer()
				if err == nil {
					err = finishSnapFile(tmp, snapshotPath(st.opts.Dir, seq))
				}
				if err != nil {
					b.Fatal(err)
				}
				st.cleanup(seq)
				b.StartTimer()
			}
		})
	}
}
