// Package stats holds the benchmark's arithmetic: percentiles, the rule for
// which tail percentile a sample supports, Python-compatible quartiles, and
// the reduction over windows every reported metric goes through.
package stats

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the p-quantile (0 < p <= 1) of an ascending slice by
// nearest rank: the smallest value with at least p of the sample at or below
// it. An empty slice yields NaN.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9)) // 0.9*100 is 90.00000000000001 in floating point
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := Sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder is the set of tail percentiles the benchmark reports, highest
// first: p99, where the latency limits are stated, down to p75.
var tailLadder = []int{990, 950, 900, 750} // permille, so the rule is exact integer arithmetic

// MinBeyond is how many samples must lie beyond a reported percentile.
const MinBeyond = 10

// SupportedTail returns the highest percentile of the ladder, no higher than
// ceiling, that has at least MinBeyond of n samples beyond it, or 1 (the
// maximum) when the sample supports none of them.
func SupportedTail(n int, ceiling float64) float64 {
	top := int(math.Round(ceiling * 1000))
	for _, pm := range tailLadder {
		if pm <= top && n*(1000-pm) >= MinBeyond*1000 {
			return float64(pm) / 1000
		}
	}
	return 1
}

// Quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the exclusive method), which
// is what the driver uses to judge run-to-run spread. It needs two values.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := Sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// Computed after the clamp, as Python does: at the ends delta falls
		// outside [0, 4] and the cut extrapolates.
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Sample is one timed observation: when it completed, as an offset from the
// start of its phase, and its value.
type Sample struct {
	At    time.Duration
	Value float64
}

// Windowed is a metric reduced over the windows of a phase.
type Windowed struct {
	// Q1, Median and Q3 are the quartiles of the per-window values.
	Q1, Median, Q3 float64
	// N is the number of samples over all windows.
	N int
	// PerWindow holds one value per non-empty window.
	PerWindow []float64
}

// OverWindows cuts [0, span) into n equal windows, reduces the values
// completed in each window with f, and reports the quartiles of the
// per-window results. One stall of the machine spoils the windows it touches
// and leaves the quartiles alone, which a single figure over the whole phase
// would not. Windows with no sample are skipped, so a phase with fewer
// samples than windows degrades to the quartiles over its samples. Samples at or past span
// belong to the last window.
func OverWindows(samples []Sample, span time.Duration, n int, f func(values []float64) float64) Windowed {
	buckets := make([][]float64, n)
	for _, s := range samples {
		w := int(int64(s.At) * int64(n) / int64(span))
		if w < 0 {
			w = 0
		}
		if w >= n {
			w = n - 1
		}
		buckets[w] = append(buckets[w], s.Value)
	}
	out := Windowed{N: len(samples)}
	for _, b := range buckets {
		if len(b) > 0 {
			out.PerWindow = append(out.PerWindow, f(b))
		}
	}
	out.Q1, out.Median, out.Q3 = Quartiles(out.PerWindow)
	return out
}

// P50 reduces a window to its median.
func P50(values []float64) float64 { return Median(values) }

// Tail returns the reduction that takes percentile p of a window.
func Tail(p float64) func([]float64) float64 {
	return func(values []float64) float64 { return Percentile(Sorted(values), p) }
}

// WindowTail picks the tail percentile to report over n windows: the highest
// one, up to ceiling, that two thirds of the emptiest non-empty window's
// samples support. The third to spare keeps the choice from flipping between
// runs whose sample counts differ a little.
func WindowTail(samples []Sample, span time.Duration, n int, ceiling float64) float64 {
	w := OverWindows(samples, span, n, func(v []float64) float64 { return float64(len(v)) })
	if len(w.PerWindow) == 0 {
		return 1
	}
	return SupportedTail(int(Sorted(w.PerWindow)[0])*2/3, ceiling)
}
