// Package analytic implements the paper's closed-form performance model:
// false positive rates for the standard Bloom filter/CBF (Eq. 1), PCBF-1
// and PCBF-g (Eqs. 2-3), MPCBF-1 (Eqs. 4-5 and the average-case variant)
// and MPCBF-g (Eqs. 8-9), the word-overflow bounds (Eqs. 6 and 10), the
// inverse-Poisson nmax heuristic (Eq. 11), and the optimal-k searches
// behind Figs. 9-11. All mixtures over the binomial occupancy distribution
// are evaluated in a numerically careful way (log-domain start, recurrence
// stepping, relative-tolerance truncation).
package analytic

import (
	"fmt"
	"math"
)

// CounterBits is the per-counter width of the standard CBF, fixed at four
// bits throughout the paper.
const CounterBits = 4

// FPRBloom returns the false positive rate of a standard Bloom filter (or
// CBF, whose membership behavior is identical) with n elements, m vector
// positions and k hash functions: (1-(1-1/m)^{kn})^k (Eq. 1).
func FPRBloom(n, m, k int) float64 {
	if n <= 0 {
		return 0
	}
	if m <= 0 || k <= 0 {
		return 1
	}
	// (1-1/m)^{kn} computed stably as exp(kn*log1p(-1/m)).
	p := math.Exp(float64(k) * float64(n) * math.Log1p(-1.0/float64(m)))
	return math.Pow(1-p, float64(k))
}

// OptimalKBloom returns the integer k minimizing Eq. 1 at ratio m/n,
// i.e. round((m/n) ln 2), at least 1.
func OptimalKBloom(n, m int) int {
	if n <= 0 || m <= 0 {
		return 1
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return k
}

// binomialMix evaluates sum_{j=0}^{trials} Binom(trials, p; j) * f(j),
// truncating the far tail once terms stop contributing. It assumes f is
// bounded in [0, 1], which holds for all conditional false-positive
// probabilities it is used with.
func binomialMix(trials int, p float64, f func(j int) float64) float64 {
	if trials <= 0 {
		return f(0)
	}
	if p <= 0 {
		return f(0)
	}
	if p >= 1 {
		return f(trials)
	}
	// pmf(0) = (1-p)^trials in log domain; step with the recurrence
	// pmf(j+1) = pmf(j) * (trials-j)/(j+1) * p/(1-p).
	logPmf := float64(trials) * math.Log1p(-p)
	pmf := math.Exp(logPmf)
	ratio := p / (1 - p)
	mean := float64(trials) * p
	sum := 0.0
	acc := 0.0 // total probability mass consumed
	for j := 0; j <= trials; j++ {
		if pmf > 0 {
			sum += pmf * f(j)
			acc += pmf
		}
		// Stop when virtually all mass is consumed and we are past the mean,
		// or once the pmf has underflowed there: every later term is then
		// zero, and walking on to trials is O(trials) for large inputs.
		if float64(j) > mean && (acc > 1-1e-15 || pmf == 0) {
			break
		}
		pmf *= float64(trials-j) / float64(j+1) * ratio
	}
	return sum
}

// condFPR returns the probability that a query slot pattern of kq hashes
// over a b-slot range is fully covered when j*ki increments landed
// uniformly in the range: (1-(1-1/b)^{j*ki})^{kq}. ki and kq may be
// fractional to mirror the paper's k/g formulas.
func condFPR(j int, ki, kq, b float64) float64 {
	if b <= 1 {
		return 1
	}
	if j == 0 {
		return 0
	}
	p := math.Exp(float64(j) * ki * math.Log1p(-1/b))
	return math.Pow(1-p, kq)
}

// FPRBlockedBloom returns the false positive rate of the one-memory-access
// Bloom filter BF-g of Qiao et al. [11]: l words of w bits, k bits per key
// split over g words. For g=1 this is the formula the paper's Eq. 2
// generalizes to counters; for g>1 the per-word term mirrors Eq. 3 with a
// bit range w instead of w/4 counters.
func FPRBlockedBloom(n, l, w, k, g int) float64 {
	if l <= 0 || w <= 1 {
		return 1
	}
	kg := float64(k) / float64(g)
	perWord := binomialMix(g*n, 1/float64(l), func(j int) float64 {
		return condFPR(j, kg, kg, float64(w))
	})
	return math.Pow(perWord, float64(g))
}

// Words returns l, the number of w-bit words a CBF of m 4-bit counters
// occupies: l = 4m/w (the paper's partitioning of the same memory).
func Words(m, w int) int {
	l := m * CounterBits / w
	if l < 1 {
		l = 1
	}
	return l
}

// FPRPCBF1 returns Eq. 2: the false positive rate of PCBF-1 with n
// elements, m 4-bit counters re-partitioned into w-bit words (w/4 counters
// per word), and k hash functions.
func FPRPCBF1(n, m, w, k int) float64 {
	l := Words(m, w)
	b := float64(w) / CounterBits
	return binomialMix(n, 1/float64(l), func(j int) float64 {
		return condFPR(j, float64(k), float64(k), b)
	})
}

// FPRPCBFg returns Eq. 3: the false positive rate of PCBF-g. Following the
// paper, each of the g probed words is modeled with k/g hashes and the
// word-selection count E' ~ Binom(gn, 1/l); the per-word term is raised to
// the g-th power.
func FPRPCBFg(n, m, w, k, g int) float64 {
	if g <= 1 {
		return FPRPCBF1(n, m, w, k)
	}
	l := Words(m, w)
	b := float64(w) / CounterBits
	kg := float64(k) / float64(g)
	perWord := binomialMix(g*n, 1/float64(l), func(j int) float64 {
		return condFPR(j, kg, kg, b)
	})
	return math.Pow(perWord, float64(g))
}

// FPRMPCBF1 returns Eq. 5: the false positive rate of the improved
// MPCBF-1 whose first level has b1 = w - k*nmax bits. Memory is given as
// the equivalent standard-CBF counter count m (so l = 4m/w words).
func FPRMPCBF1(n, m, w, k, nmax int) float64 {
	l := Words(m, w)
	b1 := float64(w - k*nmax)
	if b1 < 1 {
		return 1
	}
	return binomialMix(n, 1/float64(l), func(j int) float64 {
		return condFPR(j, float64(k), float64(k), b1)
	})
}

// FPRMPCBF1Avg returns the paper's average-case MPCBF-1 rate, where every
// word holds n_avg = n*w/(4m) elements and b1 = w - k*n_avg.
func FPRMPCBF1Avg(n, m, w, k int) float64 {
	l := Words(m, w)
	navg := float64(n) / float64(l)
	b1 := float64(w) - float64(k)*navg
	if b1 < 1 {
		return 1
	}
	return binomialMix(n, 1/float64(l), func(j int) float64 {
		return condFPR(j, float64(k), float64(k), b1)
	})
}

// FPRMPCBFg returns Eq. 9: the improved MPCBF-g rate with
// b1 = w - ceil(k/g)*nmax.
func FPRMPCBFg(n, m, w, k, g, nmax int) float64 {
	if g <= 1 {
		return FPRMPCBF1(n, m, w, k, nmax)
	}
	l := Words(m, w)
	kg := float64(k) / float64(g)
	kgCeil := math.Ceil(kg)
	b1 := float64(w) - kgCeil*float64(nmax)
	if b1 < 1 {
		return 1
	}
	perWord := binomialMix(g*n, 1/float64(l), func(j int) float64 {
		return condFPR(j, kg, kg, b1)
	})
	return math.Pow(perWord, float64(g))
}

// FPRMPCBFgAvg returns the average-case MPCBF-g rate with every word
// holding n'_avg = gn/l elements of k/g hashes each, so
// b1 = w - k*n*w/(4m) exactly as for MPCBF-1.
func FPRMPCBFgAvg(n, m, w, k, g int) float64 {
	if g <= 1 {
		return FPRMPCBF1Avg(n, m, w, k)
	}
	l := Words(m, w)
	kg := float64(k) / float64(g)
	b1 := float64(w) - float64(k)*float64(n)/float64(l)
	if b1 < 1 {
		return 1
	}
	perWord := binomialMix(g*n, 1/float64(l), func(j int) float64 {
		return condFPR(j, kg, kg, b1)
	})
	return math.Pow(perWord, float64(g))
}

// OverflowBoundMPCBF1 returns Eq. 6: the union-style upper bound
// l * (e*n/(nmax*l))^nmax on the probability that some word of MPCBF-1
// receives at least nmax elements. The paper plots the per-word bound
// times l; both are exposed (perWord=false multiplies by l).
func OverflowBoundMPCBF1(n, l, nmax int, perWord bool) float64 {
	if nmax <= 0 {
		return 1
	}
	base := math.E * float64(n) / (float64(nmax) * float64(l))
	b := math.Pow(base, float64(nmax))
	if !perWord {
		b *= float64(l)
	}
	return math.Min(b, 1)
}

// OverflowBoundMPCBFg returns Eq. 10 for MPCBF-g: per-word increments
// follow Binom(gn, 1/l) and the threshold is n'max increments of k/g
// hashes each; the bound is (e*g*n/(n'max*l))^{n'max}, optionally times l.
func OverflowBoundMPCBFg(n, l, g, nmax int, perWord bool) float64 {
	if nmax <= 0 {
		return 1
	}
	base := math.E * float64(g) * float64(n) / (float64(nmax) * float64(l))
	b := math.Pow(base, float64(nmax))
	if !perWord {
		b *= float64(l)
	}
	return math.Min(b, 1)
}

// OverflowExactTail returns the exact binomial tail P(E >= nmax) for
// E ~ Binom(trials, 1/l), the quantity Eq. 6 bounds. Used to validate the
// bound and in tests.
func OverflowExactTail(trials, l, nmax int) float64 {
	if nmax <= 0 {
		return 1
	}
	if nmax > trials {
		return 0
	}
	return binomialMix(trials, 1/float64(l), func(j int) float64 {
		if j >= nmax {
			return 1
		}
		return 0
	})
}

// PoissInv returns the smallest x such that the CDF of a Poisson(lambda)
// distribution at x is >= p (the paper's PoissInv of Eq. 11).
func PoissInv(p, lambda float64) int {
	if p <= 0 {
		return 0
	}
	if lambda <= 0 {
		return 0
	}
	pmf := math.Exp(-lambda)
	cdf := pmf
	x := 0
	// Hard limit far beyond any plausible quantile to guarantee termination
	// even for p extremely close to 1 with accumulated rounding.
	limit := int(lambda) + 200 + int(20*math.Sqrt(lambda))
	if pmf == 0 {
		// exp(-lambda) underflowed (lambda > ~745): the recurrence below
		// would stay at zero and walk to the limit one step at a time —
		// O(lambda) for an untrusted geometry — so answer it directly.
		return limit
	}
	for cdf < p && x < limit {
		x++
		pmf *= lambda / float64(x)
		cdf += pmf
	}
	return x
}

// HeuristicNmax implements Eq. 11: nmax = PoissInv(1 - 1/l, n/l), the
// paper's rule for choosing the per-word capacity so that no overflow is
// expected across l words.
func HeuristicNmax(n, l int) int {
	if l <= 0 {
		return 0
	}
	nm := PoissInv(1-1/float64(l), float64(n)/float64(l))
	if nm < 1 {
		nm = 1
	}
	return nm
}

// MPCBFDesign captures the derived geometry of an MPCBF-g instance at a
// given memory budget, the quantities Section IV.B's heuristic fixes
// before an experiment.
type MPCBFDesign struct {
	MemoryBits int // total memory M in bits
	W          int // word width
	L          int // number of words, M/w
	K          int // hash functions
	G          int // memory accesses
	Nmax       int // per-word element capacity (heuristic Eq. 11)
	B1         int // first-level width w - ceil(k/g)*nmax
}

// Design derives the MPCBF geometry for n elements in memoryBits bits with
// word width w, k hashes and g accesses, using the Eq. 11 heuristic
// (applied to g*n word selections for g > 1).
func Design(n, memoryBits, w, k, g int) (MPCBFDesign, error) {
	if memoryBits < w || w <= 0 || k <= 0 || g <= 0 {
		return MPCBFDesign{}, fmt.Errorf("analytic: bad design parameters (M=%d, w=%d, k=%d, g=%d)", memoryBits, w, k, g)
	}
	l := memoryBits / w
	nmax := HeuristicNmax(g*n, l)
	perWordK := (k + g - 1) / g
	// b1 = w - perWordK*nmax must leave perWordK first-level bits. Compare
	// before multiplying: an absurd n (a decoded or network-supplied
	// geometry) makes nmax large enough for the product to wrap.
	if perWordK >= w || nmax > (w-perWordK)/perWordK {
		return MPCBFDesign{}, fmt.Errorf("analytic: word too small: w=%d cannot hold nmax=%d elements of %d hashes", w, nmax, perWordK)
	}
	b1 := w - perWordK*nmax
	return MPCBFDesign{MemoryBits: memoryBits, W: w, L: l, K: k, G: g, Nmax: nmax, B1: b1}, nil
}

// FPR evaluates the improved-MPCBF false positive rate of the design for
// n elements (Eq. 5 / Eq. 9 with m = M/4 equivalent counters).
func (d MPCBFDesign) FPR(n int) float64 {
	m := d.MemoryBits / CounterBits
	return FPRMPCBFg(n, m, d.W, d.K, d.G, d.Nmax)
}

// OptimalKMPCBF brute-force searches k in [1, kMax] minimizing the
// MPCBF-g false positive rate at the given geometry, re-deriving nmax and
// b1 for every candidate exactly as the paper's exhaustive search does.
func OptimalKMPCBF(n, memoryBits, w, g, kMax int) (bestK int, bestFPR float64) {
	bestK, bestFPR = 1, math.Inf(1)
	for k := 1; k <= kMax; k++ {
		if k < g {
			continue
		}
		d, err := Design(n, memoryBits, w, k, g)
		if err != nil {
			continue
		}
		f := d.FPR(n)
		if f < bestFPR {
			bestK, bestFPR = k, f
		}
	}
	return bestK, bestFPR
}

// OptimalKCBF returns the optimal k for the standard CBF at memoryBits of
// memory (m = M/4 counters) together with the resulting rate.
func OptimalKCBF(n, memoryBits int) (int, float64) {
	m := memoryBits / CounterBits
	k := OptimalKBloom(n, m)
	return k, FPRBloom(n, m, k)
}
