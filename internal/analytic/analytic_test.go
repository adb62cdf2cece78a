package analytic

import (
	"math"
	"testing"
)

func TestFPRBloomKnownValues(t *testing.T) {
	// Paper Section II.A: m/n=10, k=7 gives f ~ 0.008.
	f := FPRBloom(100000, 1000000, 7)
	if f < 0.007 || f > 0.01 {
		t.Fatalf("FPRBloom(m/n=10,k=7) = %v, want ~0.008", f)
	}
	// Degenerate cases.
	if FPRBloom(0, 100, 3) != 0 {
		t.Error("empty set should have zero fpr")
	}
	if FPRBloom(10, 0, 3) != 1 {
		t.Error("zero memory should have fpr 1")
	}
}

func TestFPRBloomMonotonicity(t *testing.T) {
	// More memory -> lower fpr; more elements -> higher fpr.
	prev := 1.0
	for _, m := range []int{1000, 2000, 4000, 8000} {
		f := FPRBloom(500, m, 4)
		if f >= prev {
			t.Fatalf("fpr not decreasing in m: %v >= %v", f, prev)
		}
		prev = f
	}
	prev = 0.0
	for _, n := range []int{100, 200, 400, 800} {
		f := FPRBloom(n, 4000, 4)
		if f <= prev {
			t.Fatalf("fpr not increasing in n: %v <= %v", f, prev)
		}
		prev = f
	}
}

func TestOptimalKBloom(t *testing.T) {
	if k := OptimalKBloom(1000, 10000); k != 7 {
		t.Fatalf("OptimalKBloom(m/n=10) = %d, want 7", k)
	}
	if k := OptimalKBloom(1000, 1000); k != 1 {
		t.Fatalf("OptimalKBloom(m/n=1) = %d, want 1", k)
	}
	// The optimum must actually minimize Eq. 1 over neighbors.
	n, m := 100000, 1500000
	k := OptimalKBloom(n, m)
	f := FPRBloom(n, m, k)
	if FPRBloom(n, m, k-1) < f || FPRBloom(n, m, k+1) < f {
		t.Fatalf("k=%d is not a local optimum", k)
	}
}

func TestBinomialMixSanity(t *testing.T) {
	// f == 1 everywhere must integrate to ~1 (mass conservation).
	got := binomialMix(100000, 1e-4, func(int) float64 { return 1 })
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("mass = %v, want 1", got)
	}
	// f = indicator(j==0) must equal (1-p)^n.
	p := 1e-4
	got = binomialMix(100000, p, func(j int) float64 {
		if j == 0 {
			return 1
		}
		return 0
	})
	want := math.Exp(100000 * math.Log1p(-p))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("P(0) = %v, want %v", got, want)
	}
	// Degenerate probabilities.
	if binomialMix(10, 0, func(j int) float64 { return float64(j) }) != 0 {
		t.Error("p=0 should evaluate f(0)")
	}
	if binomialMix(10, 1, func(j int) float64 { return float64(j) }) != 10 {
		t.Error("p=1 should evaluate f(trials)")
	}
}

func TestPCBFOrdering(t *testing.T) {
	// Fig. 2's shape: f(CBF) < f(PCBF-2) < f(PCBF-1) at the same memory,
	// and PCBF-1 improves with larger w.
	n, m, k := 100000, 1000000, 3
	cbf := FPRBloom(n, m, k)
	p1w32 := FPRPCBF1(n, m, 32, k)
	p1w64 := FPRPCBF1(n, m, 64, k)
	p2w64 := FPRPCBFg(n, m, 64, k, 2)
	if !(cbf < p2w64 && p2w64 < p1w64) {
		t.Fatalf("ordering violated: cbf=%.3e pcbf2=%.3e pcbf1=%.3e", cbf, p2w64, p1w64)
	}
	if p1w64 >= p1w32 {
		t.Fatalf("PCBF-1 should improve with w: w64=%.3e w32=%.3e", p1w64, p1w32)
	}
}

func TestMPCBFBeatsCBFByOrderOfMagnitude(t *testing.T) {
	// Fig. 5 / Section IV's headline: at k=3 and w=64, MPCBF-1 clearly
	// beats the standard CBF (~3-4x) and MPCBF-2 beats it by around an
	// order of magnitude (the paper's "factor of 13" claim).
	n := 100000
	for _, mOverN := range []int{8, 10, 12} {
		m := mOverN * n
		k := 3
		l := Words(m, 64)
		cbf := FPRBloom(n, m, k)
		mp1 := FPRMPCBF1(n, m, 64, k, HeuristicNmax(n, l))
		mp2 := FPRMPCBFg(n, m, 64, k, 2, HeuristicNmax(2*n, l))
		if mp1 >= cbf/2.5 {
			t.Fatalf("m/n=%d: MPCBF-1 %.3e not clearly below CBF %.3e", mOverN, mp1, cbf)
		}
		if mp2 >= cbf/6 {
			t.Fatalf("m/n=%d: MPCBF-2 %.3e not ~an order below CBF %.3e", mOverN, mp2, cbf)
		}
	}
}

func TestMPCBFgImprovesOnMPCBF1(t *testing.T) {
	n, m, k := 100000, 1000000, 4
	l := Words(m, 64)
	nm1 := HeuristicNmax(n, l)
	nm2 := HeuristicNmax(2*n, l)
	mp1 := FPRMPCBF1(n, m, 64, k, nm1)
	mp2 := FPRMPCBFg(n, m, 64, k, 2, nm2)
	if mp2 >= mp1 {
		t.Fatalf("MPCBF-2 %.3e should beat MPCBF-1 %.3e", mp2, mp1)
	}
}

func TestMPCBFAvgClose(t *testing.T) {
	// The average-case formula should be within a small factor of the
	// heuristic-nmax formula at typical loads.
	n, m, k := 100000, 1000000, 3
	l := Words(m, 64)
	nmax := HeuristicNmax(n, l)
	a := FPRMPCBF1Avg(n, m, 64, k)
	b := FPRMPCBF1(n, m, 64, k, nmax)
	if a <= 0 || b <= 0 {
		t.Fatal("rates must be positive")
	}
	ratio := a / b
	if ratio < 1e-3 || ratio > 1e3 {
		t.Fatalf("avg %.3e and nmax %.3e rates wildly apart", a, b)
	}
	if g2 := FPRMPCBFgAvg(n, m, 64, k, 2); g2 >= a {
		t.Fatalf("avg MPCBF-2 %.3e should beat avg MPCBF-1 %.3e", g2, a)
	}
}

func TestFPRBlockedBloom(t *testing.T) {
	// BF-1's rate exceeds the standard Bloom filter's at equal memory and
	// converges toward it as w grows; BF-2 sits in between.
	n := 100000
	m := 10 * n // total bits
	std := FPRBloom(n, m, 3)
	b64 := FPRBlockedBloom(n, m/64, 64, 3, 1)
	b512 := FPRBlockedBloom(n, m/512, 512, 3, 1)
	b2 := FPRBlockedBloom(n, m/64, 64, 4, 2)
	if !(std < b512 && b512 < b64) {
		t.Fatalf("blocked ordering violated: std=%.3e w512=%.3e w64=%.3e", std, b512, b64)
	}
	if b2 >= b64 {
		t.Fatalf("BF-2 %.3e should beat BF-1 %.3e at k=4", b2, b64)
	}
	if FPRBlockedBloom(10, 0, 64, 3, 1) != 1 {
		t.Fatal("degenerate l should return 1")
	}
}

func TestFPRBlockedBloomMatchesSimulation(t *testing.T) {
	// Monte Carlo cross-check of the closed form at one operating point.
	// (The simulation lives in internal/bloom; here we just compare the
	// formula against an independent direct simulation over words.)
	const l, w, k, n = 512, 64, 3, 4000
	want := FPRBlockedBloom(n, l, w, k, 1)
	rng := newTestRNG(5)
	words := make([][]bool, l)
	for i := range words {
		words[i] = make([]bool, w)
	}
	for e := 0; e < n; e++ {
		word := rng.intn(l)
		for j := 0; j < k; j++ {
			words[word][rng.intn(w)] = true
		}
	}
	fp := 0
	const probes = 200000
	for p := 0; p < probes; p++ {
		word := rng.intn(l)
		hit := true
		for j := 0; j < k; j++ {
			if !words[word][rng.intn(w)] {
				hit = false
				break
			}
		}
		if hit {
			fp++
		}
	}
	got := float64(fp) / probes
	if got < want/1.5 || got > want*1.5 {
		t.Fatalf("simulated %.4f vs formula %.4f", got, want)
	}
}

// newTestRNG is a tiny splitmix-based generator local to the tests, so the
// analytic package keeps zero non-stdlib imports in its API surface.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed} }

func (r *testRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *testRNG) intn(n int) int { return int(r.next() % uint64(n)) }

func TestPoissInv(t *testing.T) {
	// Median of Poisson(1) is 1; P(X<=0)=e^-1~0.368.
	if got := PoissInv(0.3, 1); got != 0 {
		t.Fatalf("PoissInv(0.3,1) = %d, want 0", got)
	}
	if got := PoissInv(0.5, 1); got != 1 {
		t.Fatalf("PoissInv(0.5,1) = %d, want 1", got)
	}
	if got := PoissInv(0, 5); got != 0 {
		t.Fatalf("PoissInv(0,5) = %d, want 0", got)
	}
	// Quantile must be monotone in p.
	prev := 0
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99, 0.9999} {
		q := PoissInv(p, 4)
		if q < prev {
			t.Fatalf("PoissInv not monotone at p=%v", p)
		}
		prev = q
	}
	// CDF at the returned quantile is >= p, and < p just below it.
	lambda := 7.3
	for _, p := range []float64{0.2, 0.7, 0.99, 0.99999} {
		q := PoissInv(p, lambda)
		if cdf := poissonCDF(q, lambda); cdf < p {
			t.Fatalf("CDF(%d)=%v < p=%v", q, cdf, p)
		}
		if q > 0 {
			if cdf := poissonCDF(q-1, lambda); cdf >= p {
				t.Fatalf("CDF(%d)=%v >= p=%v (quantile not minimal)", q-1, cdf, p)
			}
		}
	}
	// Past exp(-lambda) underflow the answer is the walk's limit, reached
	// at once: a decoded or network-supplied geometry with absurd n/l
	// (1e12 items per word here) must not cost O(lambda) to reject.
	if got, want := PoissInv(0.5, 1e12), int(1e12)+200+int(20*math.Sqrt(1e12)); got != want {
		t.Fatalf("PoissInv(0.5, 1e12) = %d, want %d", got, want)
	}
	if _, err := Design(1<<40, 128, 64, 3, 1); err == nil {
		t.Fatal("Design accepted 2^40 items in two words")
	}
	// 158 hashes times a ~6e16 per-word capacity wraps int64: the check
	// must not let the wrapped product pass as a roomy first level.
	if _, err := Design(0x3779bc0000000000, 4096, 64, 158, 1); err == nil {
		t.Fatal("Design accepted a geometry whose b1 product wraps")
	}
}

func poissonCDF(x int, lambda float64) float64 {
	pmf := math.Exp(-lambda)
	cdf := pmf
	for i := 1; i <= x; i++ {
		pmf *= lambda / float64(i)
		cdf += pmf
	}
	return cdf
}

func TestHeuristicNmaxPaperRange(t *testing.T) {
	// Section IV.B: with l from 62500 to 250000 and n=100000, the heuristic
	// yields nmax from about 10 down to 7.
	lo := HeuristicNmax(100000, 250000)
	hi := HeuristicNmax(100000, 62500)
	if lo > hi {
		t.Fatalf("nmax should grow with load: l=250000 gives %d, l=62500 gives %d", lo, hi)
	}
	if hi < 8 || hi > 12 {
		t.Fatalf("nmax at l=62500 = %d, paper reports ~10", hi)
	}
	if lo < 5 || lo > 9 {
		t.Fatalf("nmax at l=250000 = %d, paper reports ~7", lo)
	}
}

func TestOverflowBounds(t *testing.T) {
	// Eq. 6 must upper-bound the exact tail.
	n, l := 100000, 62500
	for nmax := 6; nmax <= 14; nmax++ {
		bound := OverflowBoundMPCBF1(n, l, nmax, true)
		exact := OverflowExactTail(n, l, nmax)
		if bound < exact {
			t.Fatalf("nmax=%d: bound %.3e below exact tail %.3e", nmax, bound, exact)
		}
	}
	// The bound decreases in nmax once past the mean.
	prev := math.Inf(1)
	for nmax := 8; nmax <= 20; nmax++ {
		b := OverflowBoundMPCBF1(n, l, nmax, true)
		if b > prev {
			t.Fatalf("bound not decreasing at nmax=%d", nmax)
		}
		prev = b
	}
	if OverflowBoundMPCBF1(n, l, 0, true) != 1 {
		t.Error("nmax=0 should return 1")
	}
	if OverflowExactTail(10, 5, 11) != 0 {
		t.Error("tail beyond trials should be 0")
	}
	// Eq. 10 with g=2 at the same per-word threshold is larger (twice the
	// selections) but still a valid bound.
	g2 := OverflowBoundMPCBFg(n, l, 2, 12, true)
	exact2 := OverflowExactTail(2*n, l, 12)
	if g2 < exact2 {
		t.Fatalf("g=2 bound %.3e below exact %.3e", g2, exact2)
	}
}

func TestDesign(t *testing.T) {
	d, err := Design(100000, 8<<20, 64, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.L != 8<<20/64 {
		t.Fatalf("L = %d", d.L)
	}
	if d.B1 != 64-3*d.Nmax {
		t.Fatalf("B1 = %d with nmax %d", d.B1, d.Nmax)
	}
	if f := d.FPR(100000); f <= 0 || f >= 1 {
		t.Fatalf("design FPR = %v", f)
	}
	if _, err := Design(100000, 32, 64, 3, 1); err == nil {
		t.Error("memory smaller than one word accepted")
	}
	if _, err := Design(100000, 1<<10, 16, 5, 1); err == nil {
		t.Error("design with b1 < k accepted (w=16 cannot host nmax)")
	}
}

func TestOptimalKMPCBFStableInMemory(t *testing.T) {
	// Fig. 9: the optimal k for MPCBF is nearly constant (3 for g=1,
	// 4-5 for g=2, ~5 for g=3) while CBF's grows with memory.
	n := 100000
	for _, mem := range []int{4 << 20, 6 << 20, 8 << 20} {
		k1, f1 := OptimalKMPCBF(n, mem, 64, 1, 16)
		if k1 < 2 || k1 > 4 {
			t.Errorf("mem=%d: optimal k for MPCBF-1 = %d, expected ~3", mem, k1)
		}
		k2, f2 := OptimalKMPCBF(n, mem, 64, 2, 16)
		if k2 < 3 || k2 > 6 {
			t.Errorf("mem=%d: optimal k for MPCBF-2 = %d, expected 4-5", mem, k2)
		}
		if f2 >= f1 {
			t.Errorf("mem=%d: optimal MPCBF-2 rate %.3e not below MPCBF-1 %.3e", mem, f2, f1)
		}
		kc, _ := OptimalKCBF(n, mem)
		if kc < 6 {
			t.Errorf("mem=%d: CBF optimal k = %d, expected >= 6", mem, kc)
		}
	}
}

func TestWords(t *testing.T) {
	if got := Words(1000000, 64); got != 62500 {
		t.Fatalf("Words = %d, want 62500 (paper's l at 4 Mb)", got)
	}
	if got := Words(1, 64); got != 1 {
		t.Fatalf("Words should floor at 1, got %d", got)
	}
}
