package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is the injectable-clock pattern used across the repo's tests:
// time advances only when the test says so, so duration assertions never
// sleep.
type fakeClock struct {
	ns atomic.Int64
}

func (c *fakeClock) Now() time.Time           { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) Advance(d time.Duration)  { c.ns.Add(int64(d)) }
func newClock(start time.Duration) *fakeClock { c := &fakeClock{}; c.ns.Store(int64(start)); return c }

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("wire.insert")
	if s != nil {
		t.Fatalf("nil tracer produced span %v", s)
	}
	// Every method must be callable on the nil span chain.
	c := s.Child("mongod.bulkWrite").Child("storage.bulkWrite")
	c.SetAttr("k", 1)
	c.Finish()
	s.Finish()
	if got := s.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
	if ops := tr.CurrentOps(); ops != nil {
		t.Fatalf("nil tracer CurrentOps = %v", ops)
	}
	if traces := tr.Traces(0); traces != nil {
		t.Fatalf("nil tracer Traces = %v", traces)
	}
	if st := tr.Stats(); st != (Stats{}) {
		t.Fatalf("nil tracer Stats = %+v", st)
	}
}

// TestNilTracerAllocatesNothing holds the package's first promise: with
// tracing off, the span calls every layer makes on each request cost no
// allocation.
func TestNilTracerAllocatesNothing(t *testing.T) {
	var tr *Tracer
	got := testing.AllocsPerRun(1000, func() {
		root := tr.StartSpan("wire.find")
		child := root.Child("mongod.find")
		child.SetAttr("coll", "c")
		child.Finish()
		root.Finish()
	})
	if got != 0 {
		t.Fatalf("a span chain on a nil tracer allocates %.0f times, want 0", got)
	}
}

// TestTraceIDNamesTheRetainedTree: the ID a live span reports is the one
// its retained tree and every child carry, so a request's trace can be found
// in getTraces by the ID it was served under.
func TestTraceIDNamesTheRetainedTree(t *testing.T) {
	clk := newClock(0)
	tr := New(Options{SampleRate: 1, Clock: clk.Now})
	root := tr.StartSpan("wire.insert")
	child := root.Child("mongod.insert")
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace %s, root trace %s", child.TraceID(), root.TraceID())
	}
	if id := root.TraceID(); len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
		t.Fatalf("TraceID = %q, want 16 lowercase hex digits", id)
	}
	child.Finish()
	root.Finish()
	other := tr.StartSpan("wire.find")
	other.Finish()

	traces := tr.Traces(0)
	if len(traces) != 2 {
		t.Fatalf("retained %d traces, want 2", len(traces))
	}
	if traces[0].TraceID == traces[1].TraceID {
		t.Fatalf("two roots share trace %s", traces[0].TraceID)
	}
	v := traces[1]
	if v.Name != "wire.insert" || v.TraceID != root.TraceID() {
		t.Fatalf("retained root %q under trace %s, want wire.insert under %s", v.Name, v.TraceID, root.TraceID())
	}
	if c := v.Find("mongod.insert"); c == nil || c.TraceID != root.TraceID() {
		t.Fatalf("retained child = %+v, want trace %s", c, root.TraceID())
	}
}

func TestSpanTreeShapeAndDurations(t *testing.T) {
	clk := newClock(time.Hour)
	tr := New(Options{SampleRate: 1, Clock: clk.Now})

	root := tr.StartSpan("wire.bulkWrite")
	root.SetAttr("db", "testdb")
	clk.Advance(time.Millisecond)
	shard := root.Child("mongos.shard")
	shard.SetAttr("shard", "s0")
	clk.Advance(2 * time.Millisecond)
	storage := shard.Child("storage.bulkWrite")
	clk.Advance(3 * time.Millisecond)
	storage.Finish()
	shard.Finish()
	clk.Advance(time.Millisecond)
	root.Finish()

	traces := tr.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	v := traces[0]
	if v.Name != "wire.bulkWrite" || v.Duration != 7*time.Millisecond {
		t.Fatalf("root = %q/%v, want wire.bulkWrite/7ms", v.Name, v.Duration)
	}
	if db, ok := v.Attr("db"); !ok || db != "testdb" {
		t.Fatalf("root db attr = %v, %v", db, ok)
	}
	sh := v.Find("mongos.shard")
	if sh == nil || sh.Duration != 5*time.Millisecond {
		t.Fatalf("shard span = %+v, want 5ms", sh)
	}
	st := v.Find("storage.bulkWrite")
	if st == nil || st.Duration != 3*time.Millisecond {
		t.Fatalf("storage span = %+v, want 3ms", st)
	}
	if sh.TraceID != v.TraceID || st.TraceID != v.TraceID {
		t.Fatalf("trace IDs diverge: %s %s %s", v.TraceID, sh.TraceID, st.TraceID)
	}
	if sh.SpanID == v.SpanID || st.SpanID == sh.SpanID {
		t.Fatalf("span IDs collide")
	}
}

func TestSlowOpForceSampling(t *testing.T) {
	clk := newClock(time.Hour)
	tr := New(Options{SampleRate: 0, SlowThreshold: 10 * time.Millisecond, Clock: clk.Now})

	fast := tr.StartSpan("wire.find")
	clk.Advance(9 * time.Millisecond)
	fast.Finish()
	slow := tr.StartSpan("wire.update")
	clk.Advance(10 * time.Millisecond)
	slow.Finish()

	traces := tr.Traces(0)
	if len(traces) != 1 || traces[0].Name != "wire.update" {
		t.Fatalf("traces = %+v, want only the slow wire.update", traces)
	}
	st := tr.Stats()
	if st.Started != 2 || st.Slow != 1 || st.Retained != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSampleRateZeroAndOne(t *testing.T) {
	clk := newClock(0)
	always := New(Options{SampleRate: 1, Clock: clk.Now})
	never := New(Options{SampleRate: 0, Clock: clk.Now})
	for i := 0; i < 100; i++ {
		always.StartSpan("op").Finish()
		never.StartSpan("op").Finish()
	}
	if got := always.Stats().Retained; got != 100 {
		t.Fatalf("rate-1 retained %d/100", got)
	}
	if got := never.Stats().Retained; got != 0 {
		t.Fatalf("rate-0 retained %d/100", got)
	}
}

func TestSampleRateIsApproximatelyHonoured(t *testing.T) {
	clk := newClock(0)
	tr := New(Options{SampleRate: 0.25, RingSize: 8192, Clock: clk.Now, Seed: 12345})
	const n = 8000
	for i := 0; i < n; i++ {
		tr.StartSpan("op").Finish()
	}
	got := tr.Stats().Sampled
	// 3-sigma band around 2000 for a binomial(8000, 0.25).
	if got < 1800 || got > 2200 {
		t.Fatalf("sampled %d of %d at rate 0.25", got, n)
	}
}

func TestRingBoundsAndEvictionOrder(t *testing.T) {
	clk := newClock(0)
	tr := New(Options{SampleRate: 1, RingSize: 4, Clock: clk.Now})
	for i := 0; i < 10; i++ {
		s := tr.StartSpan(fmt.Sprintf("op-%d", i))
		clk.Advance(time.Millisecond)
		s.Finish()
	}
	traces := tr.Traces(0)
	if len(traces) != 4 {
		t.Fatalf("ring holds %d, want 4", len(traces))
	}
	// Most recent first: op-9, op-8, op-7, op-6.
	for i, want := range []string{"op-9", "op-8", "op-7", "op-6"} {
		if traces[i].Name != want {
			t.Fatalf("traces[%d] = %q, want %q (all: %v)", i, traces[i].Name, want, traces)
		}
	}
	if limited := tr.Traces(2); len(limited) != 2 || limited[0].Name != "op-9" {
		t.Fatalf("Traces(2) = %+v", limited)
	}
}

func TestCurrentOpsListsInFlightRoots(t *testing.T) {
	clk := newClock(time.Hour)
	tr := New(Options{SampleRate: 1, Clock: clk.Now})

	a := tr.StartSpan("wire.find")
	clk.Advance(time.Millisecond)
	b := tr.StartSpan("wire.insert")
	clk.Advance(4 * time.Millisecond)

	ops := tr.CurrentOps()
	if len(ops) != 2 {
		t.Fatalf("currentOps = %d, want 2", len(ops))
	}
	// Oldest first.
	if ops[0].Name != "wire.find" || ops[1].Name != "wire.insert" {
		t.Fatalf("order = %q, %q", ops[0].Name, ops[1].Name)
	}
	if !ops[0].InFlight || ops[0].Duration != 5*time.Millisecond {
		t.Fatalf("in-flight view = %+v, want 5ms elapsed", ops[0])
	}
	if ops[1].Duration != 4*time.Millisecond {
		t.Fatalf("second op elapsed = %v, want 4ms", ops[1].Duration)
	}

	a.Finish()
	b.Finish()
	if left := tr.CurrentOps(); len(left) != 0 {
		t.Fatalf("currentOps after finish = %+v", left)
	}
	if st := tr.Stats(); st.InFlight != 0 {
		t.Fatalf("InFlight = %d after all finished", st.InFlight)
	}
}

func TestDoubleFinishIsIdempotent(t *testing.T) {
	clk := newClock(0)
	tr := New(Options{SampleRate: 1, Clock: clk.Now})
	s := tr.StartSpan("op")
	clk.Advance(time.Millisecond)
	s.Finish()
	clk.Advance(time.Hour)
	s.Finish()
	traces := tr.Traces(0)
	if len(traces) != 1 || traces[0].Duration != time.Millisecond {
		t.Fatalf("traces = %+v, want one 1ms trace", traces)
	}
}

// TestSpanRingConcurrentStress hammers one tracer from many goroutines —
// starting/finishing roots, attaching children concurrently to shared
// parents (the mongos fan-out shape), and reading CurrentOps/Traces/Stats
// throughout — to give the race detector surface. No sleeps: the fake
// clock advances atomically from the writer goroutines.
func TestSpanRingConcurrentStress(t *testing.T) {
	clk := newClock(time.Hour)
	tr := New(Options{SampleRate: 0.5, SlowThreshold: 40 * time.Microsecond, RingSize: 64, Clock: clk.Now})

	const (
		writers = 8
		iters   = 300
		fanout  = 4
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				root := tr.StartSpan("wire.bulkWrite")
				root.SetAttr("writer", w)
				var cwg sync.WaitGroup
				for f := 0; f < fanout; f++ {
					cwg.Add(1)
					go func(f int) {
						defer cwg.Done()
						sh := root.Child("mongos.shard")
						sh.SetAttr("shard", f)
						leaf := sh.Child("storage.bulkWrite")
						clk.Advance(10 * time.Microsecond)
						leaf.Finish()
						sh.Finish()
					}(f)
				}
				cwg.Wait()
				root.Finish()
			}
		}(w)
	}
	// Concurrent readers exercise snapshotting against live mutation.
	var stop atomic.Bool
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for !stop.Load() {
				for _, v := range tr.CurrentOps() {
					if v.Name != "wire.bulkWrite" {
						panic("unexpected in-flight root " + v.Name)
					}
				}
				for _, v := range tr.Traces(16) {
					if len(v.Children) > fanout {
						panic("too many children")
					}
				}
				tr.Stats()
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	rwg.Wait()

	st := tr.Stats()
	if st.Started != writers*iters {
		t.Fatalf("started = %d, want %d", st.Started, writers*iters)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after all finished", st.InFlight)
	}
	if st.Retained+st.Dropped != st.Started {
		t.Fatalf("retained %d + dropped %d != started %d", st.Retained, st.Dropped, st.Started)
	}
	traces := tr.Traces(0)
	if len(traces) != 64 {
		t.Fatalf("ring holds %d, want full 64", len(traces))
	}
	for _, v := range traces {
		if v.InFlight {
			t.Fatalf("completed ring holds in-flight trace %+v", v)
		}
		if len(v.Children) != fanout {
			t.Fatalf("trace has %d children, want %d", len(v.Children), fanout)
		}
	}
}
