// Package trace provides the request-scoped span trees behind the server's
// currentOp and getTraces operations. A Tracer hands out root spans at the
// wire layer; every layer below (mongos fan-out, mongod execution, storage
// apply, WAL commit wait, replset quorum wait) attaches child spans and
// attributes as the request passes through, carried by the options structs
// the layers already share — no call signature changes anywhere.
//
// The design goal is that tracing costs nothing when it is off and almost
// nothing when a request is not sampled:
//
//   - A nil *Tracer returns nil root spans, and every *Span method is a
//     no-op on a nil receiver, so instrumented code never branches on
//     "is tracing on" — it just calls methods.
//   - Sampling is decided at root-span creation with one atomic splitmix64
//     step (no locks, no time source).
//   - Retention is decided when the root finishes: a trace is kept when it
//     was sampled at start OR its total duration cleared the tracer's slow
//     threshold — so slow outliers are always captured even at tiny sample
//     rates ("tail retention").
//
// Completed traces live in a bounded ring (oldest evicted first); in-flight
// roots are tracked in a registry keyed by span ID so currentOp can list
// them. Both are snapshotted into immutable Views for rendering.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRingSize bounds the completed-trace ring when Options.RingSize is
// zero.
const DefaultRingSize = 256

// Options configures a Tracer.
type Options struct {
	// SampleRate is the fraction of root spans retained regardless of
	// duration, in [0, 1]. Zero keeps only slow ops; 1 keeps everything.
	SampleRate float64
	// SlowThreshold force-retains any trace whose root duration reaches it.
	// Zero disables slow-op force sampling.
	SlowThreshold time.Duration
	// RingSize bounds the completed-trace ring (DefaultRingSize when zero).
	RingSize int
	// Clock replaces the wall clock; tests inject one so span durations are
	// deterministic without sleeping.
	Clock func() time.Time
	// Seed seeds the sampling sequence; zero picks a fixed default so tests
	// are reproducible by default.
	Seed uint64
}

// Stats is a point-in-time summary of tracer activity, exported as gauges
// on the /metrics endpoint.
type Stats struct {
	Started  int64 // root spans created
	Sampled  int64 // roots chosen by probabilistic sampling
	Slow     int64 // roots retained only because they were slow
	Retained int64 // traces placed in the completed ring
	Dropped  int64 // finished roots discarded (not sampled, not slow)
	InFlight int   // roots started but not yet finished
}

// Tracer creates and retains span trees.
type Tracer struct {
	sampleRate float64
	threshold  uint64 // sampling cut on the splitmix64 output
	slow       time.Duration
	clock      func() time.Time
	rnd        atomic.Uint64

	started  atomic.Int64
	sampled  atomic.Int64
	slowKept atomic.Int64
	retained atomic.Int64
	dropped  atomic.Int64

	mu       sync.Mutex
	inflight map[uint64]*Span
	ring     []*Span // completed roots, ring[head] is the oldest once full
	head     int
}

// New creates a Tracer. A nil Tracer is itself valid — StartSpan on it
// returns nil and tracing is free — so callers keep a *Tracer field and
// leave it nil to disable tracing.
func New(opts Options) *Tracer {
	if opts.SampleRate < 0 {
		opts.SampleRate = 0
	}
	if opts.SampleRate > 1 {
		opts.SampleRate = 1
	}
	size := opts.RingSize
	if size <= 0 {
		size = DefaultRingSize
	}
	t := &Tracer{
		sampleRate: opts.SampleRate,
		slow:       opts.SlowThreshold,
		clock:      opts.Clock,
		inflight:   make(map[uint64]*Span),
		ring:       make([]*Span, 0, size),
	}
	// A rate of exactly 1 must always sample; comparing against MaxUint64
	// with < would lose the top value, so the threshold is inclusive and a
	// full-rate tracer short-circuits in sample().
	t.threshold = uint64(opts.SampleRate * float64(^uint64(0)))
	seed := opts.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	t.rnd.Store(seed)
	return t
}

func (t *Tracer) now() time.Time {
	if t.clock != nil {
		return t.clock()
	}
	return time.Now()
}

// splitmix64 is the finalizer of the SplitMix64 generator: one atomic add
// of the golden-ratio increment, then two xor-shift-multiply rounds. Good
// enough for sampling, and lock-free.
func (t *Tracer) next() uint64 {
	z := t.rnd.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (t *Tracer) sample() bool {
	if t.sampleRate >= 1 {
		return true
	}
	if t.sampleRate <= 0 {
		return false
	}
	return t.next() <= t.threshold
}

// StartSpan begins a new root span. Every root is created and registered
// for currentOp while in flight — sampling only decides whether the
// finished tree is retained in the ring. Returns nil on a nil Tracer.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	s := &Span{
		tracer:  t,
		traceID: t.next(),
		spanID:  t.next(),
		name:    name,
		start:   t.now(),
		sampled: t.sample(),
	}
	if s.sampled {
		t.sampled.Add(1)
	}
	t.mu.Lock()
	t.inflight[s.spanID] = s
	t.mu.Unlock()
	return s
}

// finishRoot decides retention for a completed root and maintains the ring.
func (t *Tracer) finishRoot(s *Span, dur time.Duration) {
	keep := s.sampled
	if !keep && t.slow > 0 && dur >= t.slow {
		keep = true
		t.slowKept.Add(1)
	}
	t.mu.Lock()
	delete(t.inflight, s.spanID)
	if keep {
		if len(t.ring) < cap(t.ring) {
			t.ring = append(t.ring, s)
		} else {
			t.ring[t.head] = s
			t.head = (t.head + 1) % cap(t.ring)
		}
	}
	t.mu.Unlock()
	if keep {
		t.retained.Add(1)
	} else {
		t.dropped.Add(1)
	}
}

// Stats returns a snapshot of tracer counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	inflight := len(t.inflight)
	t.mu.Unlock()
	return Stats{
		Started:  t.started.Load(),
		Sampled:  t.sampled.Load(),
		Slow:     t.slowKept.Load(),
		Retained: t.retained.Load(),
		Dropped:  t.dropped.Load(),
		InFlight: inflight,
	}
}

// CurrentOps snapshots the in-flight root spans, oldest first. The views
// carry InFlight=true and a duration measured up to now.
func (t *Tracer) CurrentOps() []View {
	if t == nil {
		return nil
	}
	now := t.now()
	t.mu.Lock()
	roots := make([]*Span, 0, len(t.inflight))
	for _, s := range t.inflight {
		roots = append(roots, s)
	}
	t.mu.Unlock()
	views := make([]View, 0, len(roots))
	for _, s := range roots {
		views = append(views, s.view(now))
	}
	sortViewsByStart(views)
	return views
}

// Traces returns up to limit completed traces, most recent first (all of
// them when limit <= 0).
func (t *Tracer) Traces(limit int) []View {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ordered := make([]*Span, 0, len(t.ring))
	// ring[head:] then ring[:head] is oldest→newest once the ring wrapped;
	// before that head is 0 and the slice is already ordered.
	ordered = append(ordered, t.ring[t.head:]...)
	ordered = append(ordered, t.ring[:t.head]...)
	t.mu.Unlock()
	// Reverse to most-recent-first.
	for i, j := 0, len(ordered)-1; i < j; i, j = i+1, j-1 {
		ordered[i], ordered[j] = ordered[j], ordered[i]
	}
	if limit > 0 && len(ordered) > limit {
		ordered = ordered[:limit]
	}
	views := make([]View, 0, len(ordered))
	for _, s := range ordered {
		views = append(views, s.view(time.Time{}))
	}
	return views
}

// Span is one timed node of a trace tree. All methods are safe on a nil
// receiver (no-ops), and safe for concurrent use — mongos fans a batch out
// to shards in parallel goroutines that attach children to the same parent.
type Span struct {
	tracer  *Tracer
	traceID uint64
	spanID  uint64
	name    string
	start   time.Time
	sampled bool // root-only: probabilistically chosen at start
	root    *Span

	mu       sync.Mutex
	dur      time.Duration
	finished bool
	attrs    []Attr
	children []*Span
}

// Attr is one span attribute. Values are kept as-is; rendering stringifies.
type Attr struct {
	Key   string
	Value any
}

// Child starts a child span. On a nil receiver it returns nil, so deep
// layers chain s.Child(...).Child(...) without nil checks.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	root := s.root
	if root == nil {
		root = s
	}
	c := &Span{
		tracer:  s.tracer,
		traceID: s.traceID,
		spanID:  s.tracer.next(),
		name:    name,
		start:   s.tracer.now(),
		root:    root,
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Finish stamps the span's duration. Finishing a root decides retention and
// moves the trace from the in-flight registry to the completed ring. Double
// finish is a no-op.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	now := s.tracer.now()
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.dur = now.Sub(s.start)
	dur := s.dur
	s.mu.Unlock()
	if s.root == nil {
		s.tracer.finishRoot(s, dur)
	}
}

// TraceID returns the span's trace identifier as a 16-hex-digit string.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%016x", s.traceID)
}

// View is an immutable rendering of a span subtree.
type View struct {
	TraceID  string
	SpanID   string
	Name     string
	Start    time.Time
	Duration time.Duration
	InFlight bool
	Sampled  bool
	Attrs    []Attr
	Children []View
}

// view snapshots the subtree. For in-flight spans (not finished) the
// duration is measured up to now when now is non-zero.
func (s *Span) view(now time.Time) View {
	s.mu.Lock()
	v := View{
		TraceID: fmt.Sprintf("%016x", s.traceID),
		SpanID:  fmt.Sprintf("%016x", s.spanID),
		Name:    s.name,
		Start:   s.start,
		Sampled: s.sampled,
	}
	if s.finished {
		v.Duration = s.dur
	} else {
		v.InFlight = true
		if !now.IsZero() {
			v.Duration = now.Sub(s.start)
		}
	}
	v.Attrs = append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		v.Children = append(v.Children, c.view(now))
	}
	return v
}

// Find returns the first view in the tree (depth-first, self included)
// whose name matches, or nil. A test helper for asserting tree shape.
func (v *View) Find(name string) *View {
	if v.Name == name {
		return v
	}
	for i := range v.Children {
		if f := v.Children[i].Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Attr returns the value of the named attribute and whether it was set.
func (v *View) Attr(key string) (any, bool) {
	for _, a := range v.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

func sortViewsByStart(views []View) {
	// Insertion sort: currentOp listings are small (in-flight ops only).
	for i := 1; i < len(views); i++ {
		for j := i; j > 0 && views[j].Start.Before(views[j-1].Start); j-- {
			views[j], views[j-1] = views[j-1], views[j]
		}
	}
}
