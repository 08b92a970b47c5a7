package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic event counter.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (negative deltas are ignored — counters are monotonic).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.n.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Registry names and exports counters, histograms, and gauge sources in
// Prometheus text exposition format. Each server layer owns one (the wire
// server and the mongod server each register their op families eagerly at
// construction, so a scrape sees every family even before traffic).
//
// Registration takes a lock; the returned Counter/Histogram handles are
// lock-free, so hot paths resolve their series once and hold the handle.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*series[*Counter]
	hists    map[string]*series[*Histogram]
	gauges   []gaugeSource
}

type series[T any] struct {
	name   string
	labels string // rendered {k="v",...} or ""
	help   string
	// unit selects histogram value scaling at exposition: "seconds" divides
	// nanosecond observations by 1e9 (the Prometheus duration convention),
	// "" exports raw values (e.g. group-commit batch sizes). Unused for
	// counters.
	unit string
	val  T
}

type gaugeSource struct {
	prefix string
	fn     func() []Gauge
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*series[*Counter]),
		hists:    make(map[string]*series[*Histogram]),
	}
}

// escapeLabelValue escapes a label value per the Prometheus text exposition
// spec: backslash, double quote and newline, in that order of precedence —
// exactly those three, not Go quoting, so a parser following the spec
// round-trips every value.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text per the spec: backslash and newline only
// (quotes are legal in help text).
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	var b strings.Builder
	b.Grow(len(h) + 8)
	for i := 0; i < len(h); i++ {
		switch h[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(h[i])
		}
	}
	return b.String()
}

// renderLabels formats label pairs ("k1", "v1", "k2", "v2", ...) sorted by
// key so the same series is always the same map key. Values are escaped per
// the exposition spec.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (registering on first use) the counter series for the
// metric family name and label pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.counters[key]
	if !ok {
		s = &series[*Counter]{name: name, labels: renderLabels(labels), help: help, val: &Counter{}}
		r.counters[key] = s
	}
	return s.val
}

// Histogram returns (registering on first use) the histogram series for the
// metric family name and label pairs. Observations are durations; the
// exposition exports them in seconds per convention.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return r.registerHistogram(name, help, "seconds", &Histogram{}, labels)
}

// RawHistogram is Histogram for non-duration values (batch sizes, counts):
// the exposition exports bucket bounds and sums unscaled.
func (r *Registry) RawHistogram(name, help string, labels ...string) *Histogram {
	return r.registerHistogram(name, help, "", &Histogram{}, labels)
}

// RegisterHistogramSeries attaches an externally owned histogram (e.g. the
// WAL's fsync-latency histogram, which lives in the wal package so the log
// needs no registry) to the exposition under the given family name, unit
// ("seconds" or "") and label pairs. Re-registering the same series replaces
// the attached histogram — the durability subsystem re-registers on
// re-enable.
func (r *Registry) RegisterHistogramSeries(name, help, unit string, h *Histogram, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + renderLabels(labels)
	r.hists[key] = &series[*Histogram]{name: name, labels: renderLabels(labels), help: help, unit: unit, val: h}
}

func (r *Registry) registerHistogram(name, help, unit string, h *Histogram, labels []string) *Histogram {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.hists[key]
	if !ok {
		s = &series[*Histogram]{name: name, labels: renderLabels(labels), help: help, unit: unit, val: h}
		r.hists[key] = s
	}
	return s.val
}

// AddGaugeSource registers a callback polled at exposition time. Gauge
// names are mangled into Prometheus form: prefix + "_" + name with dots
// replaced by underscores (e.g. engine.liveVersions under prefix
// "docstore" exports as docstore_engine_liveVersions).
func (r *Registry) AddGaugeSource(prefix string, fn func() []Gauge) {
	r.mu.Lock()
	r.gauges = append(r.gauges, gaugeSource{prefix: prefix, fn: fn})
	r.mu.Unlock()
}

// promName mangles a dotted camelCase gauge name ("engine.liveVersions")
// into a snake_case Prometheus metric name ("engine_live_versions").
func promName(prefix, name string) string {
	var b strings.Builder
	b.Grow(len(prefix) + len(name) + 8)
	if prefix != "" {
		b.WriteString(prefix)
		b.WriteByte('_')
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '.' || c == '-':
			b.WriteByte('_')
		case c >= 'A' && c <= 'Z':
			if i > 0 && name[i-1] != '.' && name[i-1] != '-' {
				b.WriteByte('_')
			}
			b.WriteByte(c + ('a' - 'A'))
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// expositionBounds picks the subset of histogram bucket bounds exported as
// `le` labels: one bound per octave keeps the scrape small while the full
// resolution stays available in-process.
var expositionBounds = func() []int64 {
	var bounds []int64
	for v := int64(1); v > 0 && v < int64(time.Hour); v *= 2 {
		bounds = append(bounds, v)
	}
	return bounds
}()

// WritePrometheus renders every registered series in the classic Prometheus
// text exposition format (text/plain; version=0.0.4). Durations export in
// seconds per convention.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	counters := make([]*series[*Counter], 0, len(r.counters))
	for _, s := range r.counters {
		counters = append(counters, s)
	}
	hists := make([]*series[*Histogram], 0, len(r.hists))
	for _, s := range r.hists {
		hists = append(hists, s)
	}
	sources := append([]gaugeSource(nil), r.gauges...)
	r.mu.Unlock()

	sort.Slice(counters, func(i, j int) bool {
		return counters[i].name+counters[i].labels < counters[j].name+counters[j].labels
	})
	sort.Slice(hists, func(i, j int) bool {
		return hists[i].name+hists[i].labels < hists[j].name+hists[j].labels
	})

	lastFamily := ""
	for _, s := range counters {
		if s.name != lastFamily {
			if s.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", s.name, escapeHelp(s.help))
			}
			fmt.Fprintf(w, "# TYPE %s counter\n", s.name)
			lastFamily = s.name
		}
		fmt.Fprintf(w, "%s%s %d\n", s.name, s.labels, s.val.Value())
	}

	lastFamily = ""
	for _, s := range hists {
		if s.name != lastFamily {
			if s.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", s.name, escapeHelp(s.help))
			}
			fmt.Fprintf(w, "# TYPE %s histogram\n", s.name)
			lastFamily = s.name
		}
		scale := 1.0
		if s.unit == "seconds" {
			scale = 1e9
		}
		snap := s.val.Snapshot()
		labelPrefix := "{"
		if s.labels != "" {
			labelPrefix = s.labels[:len(s.labels)-1] + ","
		}
		var cum int64
		bi := 0
		for _, bound := range expositionBounds {
			// Octave alignment means a bucket starting below a power-of-two
			// bound lies entirely at or below it, so strict < is exact.
			for bi < numBuckets && bucketLower(bi) < bound {
				cum += snap.Counts[bi]
				bi++
			}
			fmt.Fprintf(w, "%s_bucket%sle=\"%g\"} %d\n", s.name, labelPrefix, float64(bound)/scale, cum)
		}
		fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", s.name, labelPrefix, snap.Count)
		fmt.Fprintf(w, "%s_sum%s %g\n", s.name, s.labels, float64(snap.Sum)/scale)
		fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.labels, snap.Count)
	}

	lastFamily = ""
	for _, src := range sources {
		gauges := src.fn()
		sort.Slice(gauges, func(i, j int) bool {
			if gauges[i].Name != gauges[j].Name {
				return gauges[i].Name < gauges[j].Name
			}
			return renderLabels(gauges[i].Labels) < renderLabels(gauges[j].Labels)
		})
		for _, g := range gauges {
			name := promName(src.prefix, g.Name)
			// Labeled gauges (per-member replication lag, per-shard
			// in-flight) share a family name; the TYPE line renders once.
			if name != lastFamily {
				fmt.Fprintf(w, "# TYPE %s gauge\n", name)
				lastFamily = name
			}
			fmt.Fprintf(w, "%s%s %d\n", name, renderLabels(g.Labels), g.Value)
		}
	}
}

// Handler serves the registries' merged exposition as an http.Handler for
// docstored's -metrics-addr listener, always in the classic text format
// whatever the scraper's Accept header asks for.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if r != nil {
				r.WritePrometheus(w)
			}
		}
	})
}
