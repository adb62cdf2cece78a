package bitvec_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	mpcbf "repro"
	"repro/internal/bitvec"
	"repro/internal/snapio"
	"repro/window"
)

const mib = 1 << 20

// residentChild marks the child process TestResidentPages measures in.
const residentChild = "BITVEC_RESIDENT_CHILD"

// rssAnon returns the process's anonymous resident set in bytes, read
// from RssAnon in /proc/self/status.
func rssAnon(t *testing.T) int64 {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "RssAnon:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				t.Fatalf("RssAnon line %q: %v", line, err)
			}
			return kb << 10
		}
	}
	t.Fatal("no RssAnon line in /proc/self/status")
	return 0
}

// digest returns the SHA-256 of what encode writes, streamed through a
// 64 KiB buffer rather than built in memory.
func digest(encode func(w *snapio.Writer)) [32]byte {
	h := sha256.New()
	w := snapio.NewWriter(h)
	encode(w)
	w.Flush()
	return [32]byte(h.Sum(nil))
}

// TestResidentPages holds bitvec.Zero, and the decode, release and
// rotation paths built on it, to the resident memory they promise, read
// as RssAnon before and after each operation:
//   - Zero and Vector.Reset of a dirtied 64 MiB arena give at least
//     56 MiB back, and every word reads zero afterwards;
//   - decoding a 64 MiB Sharded that holds 1000 keys makes at most 8 MiB
//     resident, into fresh memory and into released dirty arenas, and
//     the result encodes to the source's bytes;
//   - a window rotation gives back the pages its inserts dirtied in the
//     retired generation.
//
// It measures in a child process whose allocations all stay reachable:
// the runtime clears memory it hands out again, which would fault in
// the pages a fresh decode leaves alone.
func TestResidentPages(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory swamps resident-set changes")
	}
	if os.Getenv(residentChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestResidentPages$", "-test.v")
		cmd.Env = append(os.Environ(), residentChild+"=1")
		out, err := cmd.CombinedOutput()
		t.Logf("child process:\n%s", out)
		if err != nil {
			t.Fatalf("child process: %v", err)
		}
		return
	}
	var keep []any
	defer runtime.KeepAlive(&keep)

	t.Run("decode", func(t *testing.T) {
		src, err := mpcbf.NewSharded(mpcbf.Options{MemoryBits: 64 * mib * 8, ExpectedItems: 1 << 22, Seed: 3}, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			if err := src.Insert([]byte(fmt.Sprintf("resident-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		enc, err := src.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, src, enc)
		want := sha256.Sum256(enc)
		decode := func(name string, a *mpcbf.Arenas) *mpcbf.Sharded {
			before := rssAnon(t)
			s, err := mpcbf.ReadSharded(bytes.NewReader(enc), int64(len(enc)), a)
			grew := rssAnon(t) - before
			if err != nil {
				t.Fatal(err)
			}
			keep = append(keep, s)
			t.Logf("%s decode of %d MiB holding 1000 keys: RssAnon +%.2f MiB", name, len(enc)/mib, float64(grew)/mib)
			if grew > 8*mib {
				t.Errorf("%s decode: RssAnon grew %.2f MiB, want at most 8", name, float64(grew)/mib)
			}
			if digest(s.Encode) != want {
				t.Errorf("%s decode encodes to other bytes than its source", name)
			}
			return s
		}
		fresh := decode("fresh", nil)
		var a mpcbf.Arenas
		fresh.ReleaseArenas(func(words []uint64) {
			for i := range words {
				words[i] = uint64(i)<<1 | 1
			}
			a.Put(words)
		})
		decode("released dirty arenas", &a)
		if a.Reused() != 64*mib {
			t.Errorf("the decode took %d of %d released bytes", a.Reused(), 64*mib)
		}
	})

	t.Run("zero", func(t *testing.T) {
		words := make([]uint64, 8*mib)
		v := bitvec.New(64 * mib * 8)
		keep = append(keep, words, v)
		for _, c := range []struct {
			name  string
			words []uint64
			zero  func()
		}{
			{"Zero", words, func() { bitvec.Zero(words) }},
			{"Vector.Reset", v.Words(), v.Reset},
		} {
			for i := range c.words {
				c.words[i] = uint64(i)<<1 | 1
			}
			before := rssAnon(t)
			c.zero()
			fell := before - rssAnon(t)
			t.Logf("%s of a dirty 64 MiB arena: RssAnon -%.2f MiB", c.name, float64(fell)/mib)
			if fell < 56*mib {
				t.Errorf("%s: RssAnon fell %.2f MiB, want at least 56", c.name, float64(fell)/mib)
			}
			for i, x := range c.words {
				if x != 0 {
					t.Fatalf("%s: word %d = %#x", c.name, i, x)
				}
			}
		}
	})

	t.Run("rotate", func(t *testing.T) {
		w, err := window.New(window.Options{Span: time.Hour, Generations: 2, Shards: 4,
			Filter: mpcbf.Options{MemoryBits: 16 * mib * 8, ExpectedItems: 1 << 18, Seed: 5}})
		if err != nil {
			t.Fatal(err)
		}
		keys := make([][]byte, 100_000)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("rotate-%d", i))
		}
		keep = append(keep, w, keys)
		before := rssAnon(t)
		for _, k := range keys {
			if err := w.Insert(k); err != nil {
				t.Fatal(err)
			}
		}
		dirtied := rssAnon(t) - before
		w.Rotate() // the dirtied head is now the next to retire
		before = rssAnon(t)
		w.Rotate()
		fell := before - rssAnon(t)
		t.Logf("rotation of a 16 MiB generation: inserts dirtied %.2f MiB, rotation gave back %.2f MiB", float64(dirtied)/mib, float64(fell)/mib)
		if dirtied < 12*mib {
			t.Fatalf("100000 inserts dirtied %.2f MiB of a 16 MiB generation", float64(dirtied)/mib)
		}
		if fell < dirtied*7/8 {
			t.Errorf("rotation gave back %.2f MiB of the %.2f MiB its generation dirtied", float64(fell)/mib, float64(dirtied)/mib)
		}
		if w.Len() != 0 {
			t.Errorf("after two rotations the window holds %d keys", w.Len())
		}
	})
}
