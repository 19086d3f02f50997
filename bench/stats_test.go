package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"pbtree/internal/serve"
)

// oracleQuantile is the nearest-rank definition computed the slow way:
// the smallest sample v with at least ceil(q*n) samples <= v.
func oracleQuantile(samples []int64, q float64) (int64, int) {
	n := len(samples)
	need := 0
	for need < n && float64(need) < q*float64(n) {
		need++
	}
	need = max(need, 1)
	best := int64(-1)
	for _, v := range samples {
		le := 0
		for _, x := range samples {
			if x <= v {
				le++
			}
		}
		if le >= need && (best < 0 || v < best) {
			best = v
		}
	}
	// Samples above the rank: those after the need-th smallest.
	return best, n - need
}

func TestQuantileMatchesSortedOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.IntN(1500)
		s := make([]int64, n)
		for i := range s {
			s[i] = r.Int64N(int64(1 + r.IntN(5000))) // ties included
		}
		sorted := slices.Clone(s)
		slices.Sort(sorted)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			got, beyond := quantile(sorted, q)
			want, wantBeyond := oracleQuantile(s, q)
			if got != want || beyond != wantBeyond {
				t.Fatalf("n=%d q=%v: got (%d, %d), oracle (%d, %d)", n, q, got, beyond, want, wantBeyond)
			}
		}
	}
}

func samples(ns ...int64) []sample {
	t0 := time.Unix(0, 0)
	s := make([]sample, len(ns))
	for i, v := range ns {
		s[i] = sample{at: t0.Add(time.Duration(i)), ns: v}
	}
	return s
}

func TestSummarizeP99NeedsTenBeyond(t *testing.T) {
	mk := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n - i)
		}
		return s
	}
	if l := summarize(samples(mk(999)...)); l.P99OK {
		t.Fatalf("999 samples: p99 resolved with %d beyond", l.Beyond99)
	}
	l := summarize(samples(mk(1000)...))
	if !l.P99OK || l.N != 1000 || l.Beyond99 != 10 || l.P99 != 990 || l.P90 != 900 || l.P50 != 500 {
		t.Fatalf("1000 samples: %+v", l)
	}
}

// TestSummarizeUsesEverySample checks the percentiles are taken over
// all samples at once, so a burst of slow ops moves them.
func TestSummarizeUsesEverySample(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	ns := make([]int64, 5000)
	for i := range ns {
		ns[i] = 1 + r.Int64N(1000)
		if i >= 4000 {
			ns[i] *= 1000 // the last fifth of the run is slow
		}
	}
	l := summarize(samples(ns...))
	for _, c := range []struct {
		q   float64
		got int64
	}{{0.5, l.P50}, {0.9, l.P90}, {0.99, l.P99}} {
		if want, _ := oracleQuantile(ns, c.q); c.got != want {
			t.Errorf("q=%v: %d, oracle %d", c.q, c.got, want)
		}
	}
	if l.N != len(ns) {
		t.Errorf("N %d, want %d", l.N, len(ns))
	}
}

func TestRateIsCorrectOpsOverWindow(t *testing.T) {
	tl := &tally{}
	now := time.Now()
	for i := 0; i < 300; i++ {
		tl.add(cGet, now, now, nil, true)
	}
	// An idle stretch in the window still counts against the rate.
	for i := 0; i < 100; i++ {
		tl.add(cWrite, now, now.Add(time.Duration(i)), nil, true)
	}
	tl.add(cGet, now, now, &serve.RetryError{}, true)
	tl.add(cGet, now, now, nil, false)
	if got := rate(tl, 8*time.Second); got != 50 {
		t.Fatalf("rate %v, want 400 ops / 8 s = 50", got)
	}
}

func TestGCCPUFracIsTheWindows(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(f float64, n uint32, sec int64) *vars {
		v := &vars{}
		v.Memstats.GCCPUFraction, v.Memstats.NumGC = f, n
		v.Memstats.LastGC = uint64(start.Add(time.Duration(sec) * time.Second).UnixNano())
		return v
	}
	// 1 s of GC in the first 10 s (the preload), 1.25 s in the next 20.
	a, b := at(0.1, 40, 10), at(0.075, 60, 30)
	if got := gcCPUFrac(a, b, start); math.Abs(got-0.0625) > 1e-9 {
		t.Errorf("windowed share %v, want 1.25 s / 20 s = 0.0625", got)
	}
	if got := gcCPUFrac(b, b, start); got != 0 {
		t.Errorf("no collection in the window: %v, want 0", got)
	}
	if got := gcCPUFrac(&vars{}, b, start); math.Abs(got-0.075) > 1e-9 {
		t.Errorf("no collection before the window: %v, want the share since start", got)
	}
}
