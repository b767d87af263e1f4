package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of sorted xs (0 when
// empty).
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs))-1e-9)) - 1 // the epsilon keeps 0.9*100 at rank 90
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// median of unsorted float values (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// beyond is how many samples must lie above a reported percentile.
const beyond = 10

// topPercentile is the highest of p50, p90, p99, p99.9, p99.99 that
// still has at least `beyond` of n samples above it, or 0 when even the
// median does not.
func topPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if supports(n, p) {
			best = p
		}
	}
	return best
}

// supports reports whether n samples support percentile p under the
// rule above: at least `beyond` samples rank above the nearest-rank
// quantile. The epsilon keeps 0.9*100 from rounding up to rank 91.
func supports(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n)-1e-9)) >= beyond
}

// windowedQuantile is the median, over the windows that support
// percentile p, of each window's p-quantile; windows that do not
// support it are discarded. It returns the windows used. A one-off
// machine hiccup lands in one window and cannot move the median.
func windowedQuantile(windows [][]int64, p float64) (value float64, used int) {
	var qs []float64
	for _, w := range windows {
		if !supports(len(w), p) {
			continue
		}
		sortInt64(w)
		qs = append(qs, float64(quantile(w, p)))
	}
	return median(qs), len(qs)
}

// latencySummary is what a phase's latency samples reduce to, in
// nanoseconds.
type latencySummary struct {
	Samples int
	P50     float64
	P99Win  float64 // windowedQuantile(…, 0.99)
	Windows int     // windows P99Win used
	P999    float64 // 0 unless supported
	Top     float64 // topPercentile of the sample
	TopNs   float64 // its value
}

// summarize reduces latency samples; win[i] is sample i's one-second
// window.
func summarize(lat []int64, win []int) latencySummary {
	s := latencySummary{Samples: len(lat)}
	if len(lat) == 0 {
		return s
	}
	maxWin := 0
	for _, w := range win {
		if w > maxWin {
			maxWin = w
		}
	}
	windows := make([][]int64, maxWin+1)
	for i, l := range lat {
		windows[win[i]] = append(windows[win[i]], l)
	}
	s.P99Win, s.Windows = windowedQuantile(windows, 0.99)
	sortInt64(lat)
	s.P50 = float64(quantile(lat, 0.5))
	if supports(len(lat), 0.999) {
		s.P999 = float64(quantile(lat, 0.999))
	}
	if s.Top = topPercentile(len(lat)); s.Top > 0 {
		s.TopNs = float64(quantile(lat, s.Top))
	}
	return s
}
