package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to its own index, and
	// indices must be monotonic in the value.
	for i := 0; i < numBuckets; i++ {
		lo := bucketLower(i)
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLower(%d)=%d) = %d", i, lo, got)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 100, 1e3, 1e6, 1e9, 1e12, math.MaxInt64} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, idx, prev)
		}
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		if lo := bucketLower(idx); lo > v {
			t.Fatalf("bucketLower(%d) = %d > value %d", idx, lo, v)
		}
		prev = idx
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..1000 microseconds: quantiles must land within the ~12.5%
	// relative bucket error.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
		{0.999, 999 * time.Microsecond},
	}
	for _, c := range checks {
		got := s.Quantile(c.q)
		err := math.Abs(float64(got-c.want)) / float64(c.want)
		if err > 0.15 {
			t.Fatalf("q%.3f = %v, want ~%v (err %.1f%%)", c.q, got, c.want, err*100)
		}
	}
	if mean := s.Mean(); mean != 500500*time.Nanosecond {
		t.Fatalf("mean = %v, want exact 500.5us", mean)
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot quantile/mean nonzero")
	}
	h.Observe(42 * time.Nanosecond)
	s = h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		if got < 40*time.Nanosecond || got > 48*time.Nanosecond {
			t.Fatalf("single-value q%v = %v, want ~42ns", q, got)
		}
	}
	h.Observe(-5) // negative clamps to zero, must not panic
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
}

// TestHistogramConcurrentStress records from many goroutines while others
// snapshot and query concurrently, verifying the lock-free counters under
// the race detector. No sleeps.
func TestHistogramConcurrentStress(t *testing.T) {
	var h Histogram
	const (
		writers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				// Invariant: bucket counts sum to the snapshot count, and
				// quantiles are monotone in q.
				var sum int64
				for _, c := range s.Counts {
					if c < 0 {
						panic("negative bucket")
					}
					sum += c
				}
				if sum != s.Count {
					panic("torn snapshot totals")
				}
				if s.Quantile(0.5) > s.Quantile(0.999) {
					panic("non-monotone quantiles")
				}
			}
		}()
	}
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
	if got := h.Count(); got != writers*perW {
		t.Fatalf("count = %d, want %d", got, writers*perW)
	}
	s := h.Snapshot()
	var sum int64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != int64(writers*perW) {
		t.Fatalf("bucket sum = %d, want %d", sum, writers*perW)
	}
}
