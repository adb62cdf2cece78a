package window

import (
	"fmt"
	"testing"
	"time"

	mpcbf "repro"
)

// TestWindowChurnFPR is the EXPERIMENTS.md "windowed churn" harness: a
// window under steady-state churn (one cohort of fresh keys per
// rotation, oldest cohort retired) measured for in-window false
// negatives (must be zero), false-positive rate on never-inserted
// probes, and residual positives on expired keys, against a single
// static Sharded filter of equal total memory holding the same live
// population. Deterministic: fixed seed, fixed cohorts.
func TestWindowChurnFPR(t *testing.T) {
	const (
		g       = 8
		bitsGen = 1 << 21 // per generation; window total = 8 * 2Mib = 16 Mib
		liveW   = 20_000  // steady-state window population
		cohort  = liveW / g
		rounds  = 64 // rotations of steady churn after warm-up
		probes  = 200_000
	)
	key := func(round, i int) []byte { return []byte(fmt.Sprintf("churn-%d-%d", round, i)) }

	w, err := New(Options{
		Span:        time.Hour, // clock unused; rotations driven manually
		Generations: g,
		Filter:      mpcbf.Options{MemoryBits: bitsGen, ExpectedItems: liveW, Seed: 7},
		Shards:      8,
	})
	if err != nil {
		t.Fatal(err)
	}

	insertCohort := func(round int) {
		keys := make([][]byte, cohort)
		for i := range keys {
			keys[i] = key(round, i)
		}
		if err := w.InsertBatch(keys, 0); err != nil {
			t.Fatal(err)
		}
	}

	round := 0
	for ; round < g; round++ { // warm-up: fill every generation
		insertCohort(round)
		w.Rotate()
	}
	falseNeg, expiredPos, expiredProbes := 0, 0, 0
	for ; round < g+rounds; round++ {
		insertCohort(round)
		// Keys from the last g-1 cohorts are inside the guaranteed
		// lifetime: any miss is a false negative.
		for r := round - (g - 2); r <= round; r++ {
			for i := 0; i < cohort; i += 7 {
				if !w.Contains(key(r, i)) {
					falseNeg++
				}
			}
		}
		// Keys retired at least one full window ago: a hit is residual
		// aliasing, the window's effective FPR on its own past.
		if old := round - 2*g; old >= 0 {
			for i := 0; i < cohort; i++ {
				expiredProbes++
				if w.Contains(key(old, i)) {
					expiredPos++
				}
			}
		}
		w.Rotate()
	}
	if falseNeg != 0 {
		t.Fatalf("%d in-window false negatives under churn, want 0", falseNeg)
	}

	// Fresh-probe FPR of the churning window vs a static filter of the
	// same total memory holding the same live population.
	static, err := mpcbf.NewSharded(mpcbf.Options{MemoryBits: g * bitsGen, ExpectedItems: liveW, Seed: 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for r := round - g + 1; r <= round; r++ {
		if r < 0 {
			continue
		}
		for i := 0; i < cohort; i++ {
			if err := static.Insert(key(r, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	winPos, staticPos := 0, 0
	for i := 0; i < probes; i++ {
		p := []byte(fmt.Sprintf("probe-%d", i))
		if w.Contains(p) {
			winPos++
		}
		if static.Contains(p) {
			staticPos++
		}
	}
	winFPR := float64(winPos) / probes
	staticFPR := float64(staticPos) / probes
	expiredFPR := float64(expiredPos) / float64(expiredProbes)
	t.Logf("windowed churn: live=%d G=%d rounds=%d", liveW, g, rounds)
	t.Logf("window fresh-probe fpr = %.2e (%d/%d)", winFPR, winPos, probes)
	t.Logf("static equal-memory fpr = %.2e (%d/%d)", staticFPR, staticPos, probes)
	t.Logf("expired-key residual fpr = %.2e (%d/%d)", expiredFPR, expiredPos, expiredProbes)

	// Loose sanity bounds: the union over G lightly-loaded generations
	// must stay within an order of magnitude of the equal-memory static
	// filter, and expired keys must behave like fresh probes (their
	// generation was reset, nothing lingers).
	if winPos > 10*staticPos+100 {
		t.Fatalf("window fpr %.2e implausibly above static %.2e", winFPR, staticFPR)
	}
	if expiredFPR > 10*winFPR+0.001 {
		t.Fatalf("expired keys resurface at %.2e, window baseline %.2e", expiredFPR, winFPR)
	}
}
