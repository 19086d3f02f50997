package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted samples (the
// smallest sample with at least q of all samples at or below it) and
// how many samples lie above its rank.
func quantile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = min(max(i, 0), n-1)
	return sorted[i], n - 1 - i
}

// latency summarizes one op class's samples.
type latency struct {
	N             int // samples
	P50, P90, P99 int64
	Beyond99      int  // samples above the p99 rank
	P99OK         bool // at least minBeyond samples lie above the p99
}

// summarize reports the nearest-rank p50, p90 and p99 of all samples.
func summarize(samples []sample) latency {
	ns := make([]int64, len(samples))
	for i, x := range samples {
		ns[i] = x.ns
	}
	slices.Sort(ns)
	l := latency{N: len(ns)}
	l.P50, _ = quantile(ns, 0.50)
	l.P90, _ = quantile(ns, 0.90)
	l.P99, l.Beyond99 = quantile(ns, 0.99)
	l.P99OK = l.Beyond99 >= minBeyond
	return l
}

// rate is the correct completions per second over the window of
// length d.
func rate(t *tally, d time.Duration) float64 {
	return float64(t.ok()) / d.Seconds()
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
