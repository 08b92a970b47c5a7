package stats

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {0.95, 95}, {1, 100}, {0.001, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of an empty sample must be NaN")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it: p99 needs 1000 samples, p95 needs 200, and below 40 samples no
// percentile qualifies and the maximum is reported.
func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90},
		{100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 1}, {4, 1}, {0, 1},
	} {
		got := SupportedTail(c.n, 0.99)
		if got != c.want {
			t.Errorf("SupportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := c.n - int(math.Ceil(got*float64(c.n)-1e-9)); got < 1 && beyond < MinBeyond {
			t.Errorf("SupportedTail(%d) = %v leaves %d samples beyond it, want at least %d", c.n, got, beyond, MinBeyond)
		}
	}
	// A ceiling caps the choice and changes nothing below it.
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.90}, {100, 0.90}, {99, 0.75}, {39, 1}} {
		if got := SupportedTail(c.n, 0.90); got != c.want {
			t.Errorf("SupportedTail(%d, ceiling 0.90) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Reference values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, [3]float64{2, 5, 8}},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedianOfWindows(t *testing.T) {
	// Five 1 s windows; window medians are 1, 2, 100, 4, 5. One slow window
	// (a GC pause, a checkpoint) moves the mean but not the median of windows.
	var samples []Sample
	for w, v := range []float64{1, 2, 100, 4, 5} {
		for i := 0; i < 3; i++ {
			samples = append(samples, Sample{At: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, Value: v})
		}
	}
	got := OverWindows(samples, 5*time.Second, 5, P50)
	if got.Median != 4 || got.N != 15 || len(got.PerWindow) != 5 {
		t.Fatalf("OverWindows = %+v, want median 4 over 5 windows of 15 samples", got)
	}
	if got.Q1 != 1.5 || got.Q3 != 52.5 {
		t.Errorf("window quartiles = %v, %v, want 1.5, 52.5", got.Q1, got.Q3)
	}
}

func TestWindowsSkipEmptyAndClampLate(t *testing.T) {
	// Three slow operations in a 10 s phase, the last finishing past its end:
	// the value is the median over the three, not over five windows.
	samples := []Sample{{At: 3 * time.Second, Value: 30}, {At: 6 * time.Second, Value: 10}, {At: 12 * time.Second, Value: 20}}
	got := OverWindows(samples, 10*time.Second, 5, P50)
	if got.Median != 20 || len(got.PerWindow) != 3 {
		t.Fatalf("OverWindows = %+v, want median 20 over 3 non-empty windows", got)
	}
	if p := WindowTail(samples, 10*time.Second, 5, 0.99); p != 1 {
		t.Errorf("WindowTail = %v, want 1: one sample a window supports only the maximum", p)
	}
}

func TestWindowTailKeepsAThirdToSpare(t *testing.T) {
	// 2 windows of 1600 samples each: p99 needs 1000, and 1600*2/3 clears it.
	// At 1400 a window it does not, though 1400 alone would.
	mk := func(perWindow int) []Sample {
		var s []Sample
		for w := 0; w < 2; w++ {
			for i := 0; i < perWindow; i++ {
				s = append(s, Sample{At: time.Duration(w) * time.Second, Value: 1})
			}
		}
		return s
	}
	if p := WindowTail(mk(1600), 2*time.Second, 2, 0.99); p != 0.99 {
		t.Errorf("WindowTail(1600 a window) = %v, want 0.99", p)
	}
	if p := WindowTail(mk(1400), 2*time.Second, 2, 0.99); p != 0.95 {
		t.Errorf("WindowTail(1400 a window) = %v, want 0.95", p)
	}
}
