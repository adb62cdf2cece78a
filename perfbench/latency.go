package main

import (
	"math"
	"sort"
	"time"
)

// samples records exact per-request latencies in nanoseconds. Each
// sender owns one, so recording takes no lock; merge sorts them once at
// the end. Exact samples keep every quantile exact, which the daemon's
// power-of-two histogram buckets cannot.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// merge returns the union of every sender's samples, sorted.
func merge(ss ...samples) samples {
	n := 0
	for _, s := range ss {
		n += len(s)
	}
	out := make(samples, 0, n)
	for _, s := range ss {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the nearest-rank q-quantile of sorted samples in µs,
// and how many samples lie strictly beyond it.
func (s samples) quantile(q float64) (us float64, beyond int) {
	if len(s) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	v := s[i]
	j := sort.Search(len(s), func(k int) bool { return s[k] > v })
	return float64(v) / 1e3, len(s) - j
}

// medianUs is the median of unsorted samples in µs.
func medianUs(s samples) float64 {
	us, _ := merge(s).quantile(0.5)
	return us
}
