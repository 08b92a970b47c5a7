package loadgen

import (
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock advances only when something sleeps or an operation "takes"
// time, so the tests are exact and never wait.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

const ms = time.Millisecond

func TestOpenLoopTimesFromDueTimeAndReportsLateness(t *testing.T) {
	clock := &fakeClock{now: time.Unix(100, 0)}
	var seq atomic.Int64
	// 100 requests/s for 50 ms: five requests due at 0, 10, 20, 30, 40 ms.
	// The second one stalls for 25 ms; the rest take 1 ms.
	service := []time.Duration{1 * ms, 25 * ms, 1 * ms, 1 * ms, 1 * ms}
	i := 0
	results := Open(clock, 1, 100, 50*ms, &seq, func(r Request) Outcome {
		clock.Sleep(service[i])
		i++
		return Outcome{Class: i % 2, OK: true}
	})
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	// Request 2 was due at 20 ms but could only start at 35 ms, when the
	// stalled request finished: its latency counts the 15 ms it waited.
	wantDue := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	wantStart := []time.Duration{0, 10 * ms, 35 * ms, 36 * ms, 40 * ms}
	wantLatency := []time.Duration{1 * ms, 25 * ms, 16 * ms, 7 * ms, 1 * ms}
	for n, r := range results {
		if r.Due != wantDue[n] || r.Start != wantStart[n] || r.Latency() != wantLatency[n] {
			t.Errorf("request %d: due %v start %v latency %v, want %v %v %v",
				n, r.Due, r.Start, r.Latency(), wantDue[n], wantStart[n], wantLatency[n])
		}
	}
	lateFrac, maxLate := Lateness(results)
	if lateFrac != 2.0/5 || maxLate != 15*ms {
		t.Errorf("Lateness = %v, %v, want 0.4, 15ms", lateFrac, maxLate)
	}
	if seq.Load() != 5 {
		t.Errorf("sequence counter = %d, want 5", seq.Load())
	}
}

func TestClosedLoopSendsOnCompletion(t *testing.T) {
	clock := &fakeClock{now: time.Unix(100, 0)}
	var seq atomic.Int64
	results := Closed(clock, 1, 10*ms, &seq, func(r Request) Outcome {
		clock.Sleep(3 * ms)
		return Outcome{OK: true}
	})
	// Requests start at 0, 3, 6 and 9 ms; none starts at 12 ms.
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for n, r := range results {
		if r.Start != time.Duration(3*n)*ms || r.Latency() != 3*ms || r.Due != r.Start {
			t.Errorf("request %d: start %v latency %v", n, r.Start, r.Latency())
		}
	}
	if lateFrac, maxLate := Lateness(results); lateFrac != 0 || maxLate != 0 {
		t.Errorf("a closed loop is never late, got %v, %v", lateFrac, maxLate)
	}
}

func TestFailedOperationsCountAgainstAttemptsAndLimits(t *testing.T) {
	clock := &fakeClock{now: time.Unix(100, 0)}
	var seq atomic.Int64
	n := 0
	results := Closed(clock, 1, 10*ms, &seq, func(r Request) Outcome {
		clock.Sleep(1 * ms)
		n++
		return Outcome{Class: n % 2, OK: n%5 != 0} // requests 5 and 10 fail
	})
	if len(results) != 10 || Failed(results) != 2 {
		t.Fatalf("attempted %d failed %d, want 10 and 2", len(results), Failed(results))
	}
	// Every request is fast, so only the two failures miss the limit.
	if got := MissFrac(results, func(int) time.Duration { return 2 * ms }); got != 0.2 {
		t.Errorf("MissFrac = %v, want 0.2: a failed request misses any limit", got)
	}
	// With a limit per class, class 1 (limit 0) misses everything.
	got := MissFrac(results, func(class int) time.Duration {
		if class == 1 {
			return 0
		}
		return 2 * ms
	})
	if got != 0.6 {
		t.Errorf("MissFrac with per-class limits = %v, want 0.6", got)
	}
}
