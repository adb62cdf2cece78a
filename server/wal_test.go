package server

import (
	"encoding/binary"
	"fmt"
	"os"
	"testing"

	"repro/server/wire"
)

type walRec struct {
	op  byte
	key string
}

func replayAll(t *testing.T, path string) []walRec {
	t.Helper()
	var out []walRec
	n, valid, err := replayWAL(path, func(op byte, key []byte) error {
		out = append(out, walRec{op, string(key)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(out) {
		t.Fatalf("replay count %d, callbacks %d", n, len(out))
	}
	if fi, err := os.Stat(path); err == nil && valid > fi.Size() {
		t.Fatalf("valid prefix %d exceeds file size %d", valid, fi.Size())
	}
	return out
}

// appendDurable logs keys as one group of op records and waits until
// the group is durable per policy.
func appendDurable(t *testing.T, w *wal, op byte, keys ...[]byte) {
	t.Helper()
	ticket, err := w.EnqueueBatch(op, nil, keys, nil, nil)
	if err == nil {
		err = w.WaitDurable(ticket, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, SyncAlways, -1)
	if err != nil {
		t.Fatal(err)
	}
	appendDurable(t, w, wire.OpInsert, []byte("alpha"))
	appendDurable(t, w, wire.OpInsert, []byte("beta"), []byte("gamma"))
	appendDurable(t, w, wire.OpDelete, []byte("alpha"))
	// Empty key is legal (a zero-length key is a valid filter key).
	appendDurable(t, w, wire.OpInsert, nil)
	records, syncs := w.Stats()
	if records != 5 {
		t.Fatalf("records = %d", records)
	}
	if syncs == 0 {
		t.Fatal("SyncAlways produced no syncs")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, walPath(dir, 1))
	want := []walRec{
		{wire.OpInsert, "alpha"},
		{wire.OpInsert, "beta"},
		{wire.OpInsert, "gamma"},
		{wire.OpDelete, "alpha"},
		{wire.OpInsert, ""},
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, SyncAlways, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appendDurable(t, w, wire.OpInsert, []byte(fmt.Sprintf("key-%d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := walPath(dir, 1)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncating anywhere strictly inside the file must keep a clean
	// prefix: replay never errors and yields only intact records.
	for cut := len(whole) - 1; cut > 0; cut -= 3 {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, path)
		if len(got) >= 10 {
			t.Fatalf("cut %d: replayed %d records from truncated log", cut, len(got))
		}
		for i, r := range got {
			if want := fmt.Sprintf("key-%d", i); r.key != want {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, i, r.key, want)
			}
		}
	}
}

func TestWALOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, SyncAlways, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appendDurable(t, w, wire.OpInsert, []byte(fmt.Sprintf("key-%d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := walPath(dir, 1)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append leaves garbage after the last intact record.
	torn := append(append([]byte(nil), clean...), 0xFF, 0xFF, 0xFF, 0xFF, 0xDE)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	_, valid, err := replayWAL(path, func(byte, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if valid != int64(len(clean)) {
		t.Fatalf("valid prefix = %d, want %d", valid, len(clean))
	}
	// Reopening at the valid prefix cuts the garbage, so a record appended
	// after recovery is reachable by the next replay.
	w, err = openWAL(dir, 1, SyncAlways, valid)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != valid {
		t.Fatalf("size after truncating open = %d, want %d", fi.Size(), valid)
	}
	appendDurable(t, w, wire.OpInsert, []byte("post-crash"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != 4 || got[3].key != "post-crash" {
		t.Fatalf("replay after truncating reopen = %+v, want 4 records ending in post-crash", got)
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, SyncAlways, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		appendDurable(t, w, wire.OpInsert, []byte(fmt.Sprintf("key-%d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := walPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one body byte in the third record: records 0-1 replay, the
	// CRC mismatch stops the rest.
	recLen := walRecordHeader + 1 + len("key-0")
	data[2*recLen+walRecordHeader] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 2 {
		t.Fatalf("replayed %d records past corruption, want 2", len(got))
	}
	// An implausible length field likewise ends replay cleanly.
	binary.LittleEndian.PutUint32(data[recLen:recLen+4], 1<<30)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, path); len(got) != 1 {
		t.Fatalf("replayed %d records past bad length, want 1", len(got))
	}
}

func TestWALRotate(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 7, SyncAlways, -1)
	if err != nil {
		t.Fatal(err)
	}
	appendDurable(t, w, wire.OpInsert, []byte("before"))
	newSeq, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if newSeq != 8 {
		t.Fatalf("newSeq = %d, want 8", newSeq)
	}
	appendDurable(t, w, wire.OpInsert, []byte("after"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, walPath(dir, 7)); len(got) != 1 || got[0].key != "before" {
		t.Fatalf("old segment: %+v", got)
	}
	if got := replayAll(t, walPath(dir, 8)); len(got) != 1 || got[0].key != "after" {
		t.Fatalf("new segment: %+v", got)
	}
	files, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seqs := files.segments; len(seqs) != 2 || seqs[0] != 7 || seqs[1] != 8 {
		t.Fatalf("segments = %v", seqs)
	}
}

func TestWALSyncInterval(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, SyncInterval, -1)
	if err != nil {
		t.Fatal(err)
	}
	appendDurable(t, w, wire.OpInsert, []byte("buffered"))
	// Nothing synced yet; an explicit Sync (what the background ticker
	// calls) flushes and fsyncs.
	if _, syncs := w.Stats(); syncs != 0 {
		t.Fatalf("premature syncs: %d", syncs)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, syncs := w.Stats(); syncs != 1 {
		t.Fatalf("syncs = %d, want 1", syncs)
	}
	// Sync with nothing new is a no-op.
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, syncs := w.Stats(); syncs != 1 {
		t.Fatalf("idle sync bumped counter")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, walPath(dir, 1)); len(got) != 1 {
		t.Fatalf("replayed %d", len(got))
	}
}

// A tailer's FlushedPos (replication streamers, metrics scrapes) drains
// pending bytes to the segment without fsync. Under SyncAlways that must
// not advance the durable ticket: a writer blocked in WaitDurable would
// otherwise ack a record that exists only in the page cache.
func TestWALFlushedPosDoesNotAckSyncAlways(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, 1, SyncAlways, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ticket, err := w.Enqueue(wire.OpInsert, []byte("alpha"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.FlushedPos(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	dur, pending := w.durTicket, len(w.pending)
	w.mu.Unlock()
	if pending != 0 {
		t.Fatalf("FlushedPos left %d pending bytes", pending)
	}
	if dur >= ticket {
		t.Fatalf("durTicket = %d covers ticket %d with no fsync", dur, ticket)
	}
	// The waiter still gets its durability: WaitDurable leads a round
	// that fsyncs the already-written bytes, then releases.
	if _, syncs := w.Stats(); syncs != 0 {
		t.Fatalf("premature syncs: %d", syncs)
	}
	if err := w.WaitDurable(ticket, nil); err != nil {
		t.Fatal(err)
	}
	if _, syncs := w.Stats(); syncs == 0 {
		t.Fatal("WaitDurable released without an fsync")
	}
	w.mu.Lock()
	dur = w.durTicket
	w.mu.Unlock()
	if dur < ticket {
		t.Fatalf("durTicket = %d after WaitDurable, want >= %d", dur, ticket)
	}
}
