package server

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/server/wire"
)

// The data directory has one owner: this file names every file the
// store writes, recognises those names when it lists the directory, and
// makes the calls that act on the directory itself. Published files
// (seq is 16 lowercase hex digits):
//
//	snapshot-<seq>.snap  the whole store's state, covering every segment below seq
//	wal-<seq>.log        a WAL segment
//	ns-<name>.snap       an evicted namespace's state (its evict file)
//
// A snapshot or evict file is written as <file>.tmp and renamed over
// <file> once fsynced; an evict file streamed out of a loading snapshot
// waits as ns-<name>.snap.load until the snapshot proves good. Only a
// crash leaves either form behind. A name is recognised only when
// formatting what was parsed from it gives the name back, so a temp file
// never passes for its published form, and foreign names are left alone.
const (
	snapPrefix, snapSuffix  = "snapshot-", ".snap"
	walPrefix, walSuffix    = "wal-", ".log"
	nsPrefix                = "ns-"
	tmpSuffix, stagedSuffix = ".tmp", ".load"
)

func seqName(prefix string, seq uint64, suffix string) string {
	return fmt.Sprintf("%s%016x%s", prefix, seq, suffix)
}

func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, seqName(snapPrefix, seq, snapSuffix))
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, seqName(walPrefix, seq, walSuffix))
}

func nsSnapPath(dir, name string) string { return filepath.Join(dir, nsPrefix+name+snapSuffix) }
func tempPath(path string) string        { return path + tmpSuffix }
func stagedPath(path string) string      { return path + stagedSuffix }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 16, 64)
	return seq, err == nil && seqName(prefix, seq, suffix) == name
}

func parseNsSnap(name string) (string, bool) {
	ns := strings.TrimSuffix(strings.TrimPrefix(name, nsPrefix), snapSuffix)
	return ns, wire.ValidateNamespace(ns) == nil && nsPrefix+ns+snapSuffix == name
}

// isLeftover reports whether name is a snapshot's or an evict file's
// temp form, or an evict file's staged form.
func isLeftover(name string) bool {
	if base, ok := strings.CutSuffix(name, tmpSuffix); ok {
		_, snap := parseSeq(base, snapPrefix, snapSuffix)
		_, ev := parseNsSnap(base)
		return snap || ev
	}
	base, ok := strings.CutSuffix(name, stagedSuffix)
	_, ev := parseNsSnap(base)
	return ok && ev
}

// dirFiles is one listing of the data directory, each list in name
// order, which for snapshots and segments is ascending seq.
type dirFiles struct {
	snapshots []uint64 // published snapshots
	segments  []uint64 // WAL segments
	evicted   []string // namespaces with an evict file
	leftovers []string // paths of temp and staged files
}

// scanDir lists dir once, skipping every name it does not recognise. A
// listing error comes back with whatever was listed before it.
func scanDir(dir string) (dirFiles, error) {
	entries, err := os.ReadDir(dir)
	var d dirFiles
	for _, e := range entries {
		name := e.Name()
		if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			d.snapshots = append(d.snapshots, seq)
		} else if seq, ok := parseSeq(name, walPrefix, walSuffix); ok {
			d.segments = append(d.segments, seq)
		} else if ns, ok := parseNsSnap(name); ok {
			d.evicted = append(d.evicted, ns)
		} else if isLeftover(name) {
			d.leftovers = append(d.leftovers, filepath.Join(dir, name))
		}
	}
	return d, err
}

// openDir creates dir if absent, lists it, and removes the leftovers a
// crash left: nothing is written yet, so no temp file is in flight.
func openDir(dir string, log *slog.Logger) (dirFiles, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return dirFiles{}, err
	}
	d, err := scanDir(dir)
	removeFiles(log, "open: remove leftover", d.leftovers...)
	return d, err
}

// wipeDir removes every published file in dir: segments, then
// snapshots, then evict files. A crash part way leaves snapshots without
// the segments after them, which recover to an older consistent state,
// never segments replayed without the snapshot they follow. Temp and
// staged files stay.
func wipeDir(dir string, log *slog.Logger) {
	d, err := scanDir(dir)
	if err != nil {
		log.Warn("wipe: list data directory", "error", err)
	}
	for _, seq := range d.segments {
		removeFiles(log, "wipe: remove", walPath(dir, seq))
	}
	for _, seq := range d.snapshots {
		removeFiles(log, "wipe: remove", snapshotPath(dir, seq))
	}
	for _, name := range d.evicted {
		removeFiles(log, "wipe: remove", nsSnapPath(dir, name))
	}
}

// removeFiles removes each path, logging a failure: a stale file costs
// disk, never correctness.
func removeFiles(log *slog.Logger, msg string, paths ...string) {
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			log.Warn(msg, "path", p, "error", err)
		}
	}
}

// syncDir fsyncs a directory so a rename survives power loss; best
// effort on platforms where directories cannot be fsynced.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
