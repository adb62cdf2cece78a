package server

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	mpcbf "repro"
	"repro/elastic"
	"repro/server/wire"
)

// TestReplicaBootstrapModeSwitchUnderReads swaps a replica's default
// filter between a plain and an elastic payload 500 times while four
// goroutines read it. A bootstrap publishes the new state in one atomic
// store, so every concurrent Contains finds a filter — and, since both
// payloads hold the probed key, answers true.
func TestReplicaBootstrapModeSwitchUnderReads(t *testing.T) {
	opts := testStoreOptions(t.TempDir())
	opts.Replica = true
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	key := []byte("present-in-both")
	geom := mpcbf.Options{MemoryBits: 1 << 12, ExpectedItems: 100, Seed: 3}
	plain, err := mpcbf.NewSharded(geom, 2)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := elastic.New(elastic.Options{Filter: geom, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var payloads [2][]byte
	for i, f := range []interface {
		Insert([]byte) error
		MarshalBinary() ([]byte, error)
	}{plain, chain} {
		if err := f.Insert(key); err != nil {
			t.Fatal(err)
		}
		if payloads[i], err = f.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}

	// The fresh replica holds an empty filter: install a payload before
	// anyone reads.
	if err := s.ReplicaBootstrap(1, 0, 0, payloads[0]); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var misses atomic.Int64
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !s.Contains(key) {
					misses.Add(1)
				}
			}
		}()
	}
	for i := 1; i <= 500; i++ {
		if err := s.ReplicaBootstrap(uint64(i+1), 0, 0, payloads[i%2]); err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("bootstrap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if n := misses.Load(); n != 0 {
		t.Fatalf("%d reads during bootstraps missed a key every payload holds", n)
	}
}

// TestReplicaRefusedFrameChangesNothing: a frame that fails validation —
// its last byte flipped, or a record count other than its header's — is
// refused before any of its records apply. The window has not rotated,
// the DUMP and the mirror position are unchanged, and a resend of the
// intact frame rotates the ring once.
func TestReplicaRefusedFrameChangesNothing(t *testing.T) {
	opts := testWindowStoreOptions(t.TempDir())
	opts.Replica = true
	r, err := OpenStore(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	frame := appendWALRecord(nil, walOpWindowRotate, nil)
	frame = appendWALRecord(frame, wire.OpInsert, []byte("k"))
	flipped := bytes.Clone(frame)
	flipped[len(flipped)-1] ^= 1
	before, err := r.MarshalFilter()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		raw  []byte
		n    uint32
	}{
		{"flipped byte", flipped, 2},
		{"count mismatch", frame, 3},
	} {
		if err := r.ReplicaApply(1, 0, c.n, c.raw); err == nil {
			t.Fatalf("%s: frame accepted", c.name)
		}
		if got := r.Window().Rotations(); got != 0 {
			t.Fatalf("%s: refused frame rotated the ring %d times", c.name, got)
		}
		if dump, err := r.MarshalFilter(); err != nil || !bytes.Equal(dump, before) {
			t.Fatalf("%s: DUMP changed by a refused frame (err %v)", c.name, err)
		}
		if seq, off := r.ReplicationPos(); seq != 1 || off != 0 {
			t.Fatalf("%s: mirror at (%d, %d), want (1, 0)", c.name, seq, off)
		}
	}
	if err := r.ReplicaApply(1, 0, 2, frame); err != nil {
		t.Fatal(err)
	}
	if got := r.Window().Rotations(); got != 1 {
		t.Fatalf("resent frame left %d rotations, want 1", got)
	}
	if !r.Contains([]byte("k")) {
		t.Fatal("resent frame's insert is absent")
	}
}
