// Package loadgen drives a workload's operations on a schedule. A closed
// loop models callers that each wait for a reply: a worker sends its next
// request when the previous one completes, so a slow system receives less
// load. An open loop models independent users: request i is due at
// start + i/rate whatever the system does, its latency counts from that due
// time, and the generator reports how late it ran.
package loadgen

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source; tests substitute a fake that never sleeps.
type Clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// coarseTimer is the longest a timer may overshoot. In the sandbox this
// benchmark was built in, time.Sleep(50µs) returns after 1.1 ms, far longer
// than the gap between two requests, so a wait cannot end on a timer.
const coarseTimer = 2 * time.Millisecond

// Sleep waits d precisely: it sleeps while the deadline is further off than
// a timer can overshoot, then yields the processor in a loop until it is
// reached. The yield lets the in-process server's goroutines run whenever
// they are runnable; the loop costs the processor time nobody else wants.
// Open lets one worker at a time wait like this. The other processor then
// halts between requests, and in the same sandbox a halted virtual CPU takes
// about 250 µs to wake: every hand-off between goroutines pays that (a point
// find reads 0.2 ms from its due time, 0.04 ms in the closed loop), which
// is why the end-to-end latencies are taken from the closed loop and the
// open loop runs in the traced run only.
func (wallClock) Sleep(d time.Duration) {
	deadline := time.Now().Add(d)
	if d > coarseTimer {
		time.Sleep(d - coarseTimer)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Wall is the real clock.
var Wall Clock = wallClock{}

// Request identifies one operation to perform.
type Request struct {
	Worker int
	// Seq is unique over every phase sharing one counter; it is the request
	// ID of the operation's spans.
	Seq int64
	// Due is when the request was scheduled: the send time in a closed loop.
	Due time.Time
}

// Outcome is what an operation reports back.
type Outcome struct {
	// Class indexes the workload's operation classes.
	Class int
	// OK is false when the operation failed, was refused, or returned a
	// wrong result.
	OK bool
}

// Op performs one request.
type Op func(Request) Outcome

// Result is one completed request; the times are offsets from phase start.
type Result struct {
	Class           int
	Due, Start, End time.Duration
	Failed          bool
}

// Latency is the time from when the request was due to when it completed,
// which includes any wait a stall imposed before it was sent.
func (r Result) Latency() time.Duration { return r.End - r.Due }

// Closed runs workers concurrent closed loops for d and returns every
// completed request. No request starts after d has elapsed.
func Closed(clock Clock, workers int, d time.Duration, seq *atomic.Int64, op Op) []Result {
	t0 := clock.Now()
	return run(workers, func(worker int) []Result {
		var out []Result
		for {
			start := clock.Now()
			if start.Sub(t0) >= d {
				return out
			}
			o := op(Request{Worker: worker, Seq: seq.Add(1), Due: start})
			at := start.Sub(t0)
			out = append(out, Result{Class: o.Class, Due: at, Start: at, End: clock.Now().Sub(t0), Failed: !o.OK})
		}
	})
}

// Open sends floor(rate*d) requests, request i due at start + i/rate, over
// workers connections. A worker that finds its request not yet due sleeps
// until it is; one that finds it overdue sends at once, and the request's
// latency still counts from the due time.
func Open(clock Clock, workers int, rate float64, d time.Duration, seq *atomic.Int64, op Op) []Result {
	t0 := clock.Now()
	total := int64(rate * d.Seconds())
	// pace is held by the one worker waiting for the next due time; the idle
	// others park on it. Waiting keeps a processor busy (wallClock.Sleep):
	// with every idle worker doing it the server shares both processors with
	// yield loops, and the tail then moved by a third from run to run; with
	// one, it repeats within a few percent.
	var pace sync.Mutex
	next := int64(0)
	return run(workers, func(worker int) []Result {
		var out []Result
		for {
			pace.Lock()
			i := next
			next++
			if i >= total {
				pace.Unlock()
				return out
			}
			due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if wait := due.Sub(clock.Now()); wait > 0 {
				clock.Sleep(wait)
			}
			pace.Unlock()
			start := clock.Now()
			o := op(Request{Worker: worker, Seq: seq.Add(1), Due: due})
			out = append(out, Result{Class: o.Class, Due: due.Sub(t0), Start: start.Sub(t0), End: clock.Now().Sub(t0), Failed: !o.OK})
		}
	})
}

// run starts one goroutine per worker, waits for all of them and
// concatenates what they return.
func run(workers int, loop func(worker int) []Result) []Result {
	per := make([][]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			per[w] = loop(w)
		}(w)
	}
	wg.Wait()
	var all []Result
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// LateBy is how long after its due time a request must start to count as
// late: well above timer granularity, well below the latency limits.
const LateBy = time.Millisecond

// Lateness reports how far behind schedule the generator ran: the share of
// requests that started more than LateBy after they were due, and the
// longest such delay.
func Lateness(results []Result) (lateFrac float64, maxLate time.Duration) {
	if len(results) == 0 {
		return 0, 0
	}
	late := 0
	for _, r := range results {
		behind := r.Start - r.Due
		if behind > LateBy {
			late++
		}
		if behind > maxLate {
			maxLate = behind
		}
	}
	return float64(late) / float64(len(results)), maxLate
}

// Failed counts the requests that failed.
func Failed(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Failed {
			n++
		}
	}
	return n
}

// MissFrac is the share of requests that missed their latency limit. limit
// returns the limit of a class; a failed request misses any limit.
func MissFrac(results []Result, limit func(class int) time.Duration) float64 {
	if len(results) == 0 {
		return 0
	}
	miss := 0
	for _, r := range results {
		if r.Failed || r.Latency() > limit(r.Class) {
			miss++
		}
	}
	return float64(miss) / float64(len(results))
}
