package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log-bucketed latency histogram in the HDR style:
// each power-of-two octave of nanoseconds is split into 4 sub-buckets, so
// relative bucket error is bounded at ~12.5% across the full int64 range
// while the whole histogram stays a fixed array of atomic counters. That
// fixed shape is what makes concurrent Observe/Snapshot safe without locks.
//
// Values are durations in nanoseconds. Negative observations clamp to 0.
//
// Each bucket can also retain one exemplar: the most recent traced
// observation that landed in it (trace ID + exact value). Exemplars are
// stored through per-bucket atomic pointers, so ObserveExemplar stays
// lock-free and a scrape never sees a torn {traceID, value} pair.
type Histogram struct {
	counts    [numBuckets]atomic.Int64
	count     atomic.Int64
	sum       atomic.Int64
	exemplars [numBuckets]atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket to the trace that produced its most
// recent sampled observation, in the OpenMetrics sense: the exposition
// appends it to the bucket line so a p999 spike points at a retained trace.
type Exemplar struct {
	TraceID string
	// Value is the exact observed value in the histogram's native unit
	// (nanoseconds for latency histograms).
	Value int64
}

// numBuckets covers 0ns through the top of the int64 range: values 0..3 get
// exact unit buckets, then 4 sub-buckets per octave for octaves 2..62.
const numBuckets = 4 + 4*61

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < 4 {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // position of the highest set bit, >= 2
	// Sub-bucket = the two bits below the highest set bit.
	idx := (exp-1)*4 + int((uint64(v)>>(exp-2))&3)
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketLower returns the smallest value mapping to bucket idx.
func bucketLower(idx int) int64 {
	if idx < 4 {
		return int64(idx)
	}
	exp := idx/4 + 1
	sub := idx % 4
	return int64(4+sub) << (exp - 2)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// ObserveExemplar records one duration and, when traceID is non-empty,
// retains it as the bucket's exemplar. Callers pass the trace ID only for
// requests whose trace is actually retained (sampled roots), so every
// exemplar in the exposition resolves through getTraces; an empty traceID
// makes this exactly Observe — the untraced path allocates nothing.
func (h *Histogram) ObserveExemplar(d time.Duration, traceID string) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	idx := bucketIndex(ns)
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	if traceID != "" {
		h.exemplars[idx].Store(&Exemplar{TraceID: traceID, Value: ns})
	}
}

// exemplarIn returns the retained exemplar of the highest bucket in
// [lo, hi) that has one, or nil. The exposition uses it to attach one
// exemplar per rendered `le` bucket (which spans several internal
// sub-buckets).
func (h *Histogram) exemplarIn(lo, hi int) *Exemplar {
	for i := hi - 1; i >= lo; i-- {
		if e := h.exemplars[i].Load(); e != nil {
			return e
		}
	}
	return nil
}

// Exemplars lists the retained exemplars, one per internal bucket that has
// one, ordered by bucket. BucketLower is the bucket's smallest value.
func (h *Histogram) Exemplars() []BucketExemplar {
	var out []BucketExemplar
	for i := 0; i < numBuckets; i++ {
		if e := h.exemplars[i].Load(); e != nil {
			out = append(out, BucketExemplar{BucketLower: bucketLower(i), Exemplar: *e})
		}
	}
	return out
}

// BucketExemplar is one bucket's retained exemplar with its bucket bound.
type BucketExemplar struct {
	BucketLower int64
	Exemplar
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot captures the histogram for quantile queries and exposition.
// Concurrent Observe calls may land between counter reads — the snapshot is
// a consistent-enough view for monitoring, never torn in a way that breaks
// cumulative bucket ordering by more than in-flight observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram's counters.
type HistogramSnapshot struct {
	Counts [numBuckets]int64
	Count  int64
	Sum    int64
}

// Quantile returns the latency at quantile q in [0, 1], interpolated to the
// midpoint of the bucket holding that rank. Returns 0 for an empty
// snapshot.
func (s *HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count-1)) + 1
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += s.Counts[i]
		if cum >= rank {
			lo := bucketLower(i)
			hi := lo
			if i+1 < numBuckets {
				hi = bucketLower(i+1) - 1
			}
			return time.Duration(lo + (hi-lo)/2)
		}
	}
	return time.Duration(bucketLower(numBuckets - 1))
}

// P50 and P99 are the quantiles serverStatus reports.
func (s *HistogramSnapshot) P50() time.Duration { return s.Quantile(0.50) }
func (s *HistogramSnapshot) P99() time.Duration { return s.Quantile(0.99) }

// Mean returns the average observed duration (exact, from the running sum).
func (s *HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}
