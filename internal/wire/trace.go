package wire

import (
	"strings"
	"time"

	"docstore/internal/bson"
	"docstore/internal/metrics"
	"docstore/internal/trace"
)

// Prometheus metric family names the wire layer exports; the mongod layer
// exports the matching docstore_mongod_* families.
const (
	metricRequestsTotal   = "docstore_wire_requests_total"
	metricRequestErrors   = "docstore_wire_request_errors_total"
	metricRequestDuration = "docstore_wire_request_duration_seconds"
)

// knownWireOps are the protocol ops, registered eagerly at construction so
// a /metrics scrape sees every family and series before traffic; unknown
// ops record under "other".
var knownWireOps = []string{
	OpPing, OpInsert, OpInsertMany, OpBulkWrite, OpFind, OpCount, OpUpdate,
	OpDelete, OpAggregate, OpWatch, OpGetMore, OpKillCursors, OpEnsureIndex,
	OpDrop, OpListColls, OpStats, OpCurrentOp, OpGetTraces,
	"other",
}

// wireMetrics holds the per-op request counters and latency histograms.
// The maps are built once and never mutated, so the request path reads
// them lock-free.
type wireMetrics struct {
	registry *metrics.Registry
	counts   map[string]*metrics.Counter
	errors   map[string]*metrics.Counter
	hists    map[string]*metrics.Histogram
}

func newWireMetrics() wireMetrics {
	wm := wireMetrics{
		registry: metrics.NewRegistry(),
		counts:   make(map[string]*metrics.Counter, len(knownWireOps)),
		errors:   make(map[string]*metrics.Counter, len(knownWireOps)),
		hists:    make(map[string]*metrics.Histogram, len(knownWireOps)),
	}
	for _, op := range knownWireOps {
		wm.counts[op] = wm.registry.Counter(metricRequestsTotal, "wire requests handled", "op", op)
		wm.errors[op] = wm.registry.Counter(metricRequestErrors, "wire requests that returned an error", "op", op)
		wm.hists[op] = wm.registry.Histogram(metricRequestDuration, "wire request latency", "op", op)
	}
	return wm
}

// observe records one handled request.
func (wm *wireMetrics) observe(op string, elapsed time.Duration, failed bool) {
	if _, ok := wm.counts[op]; !ok {
		op = "other"
	}
	wm.counts[op].Inc()
	if failed {
		wm.errors[op].Inc()
	}
	wm.hists[op].Observe(elapsed)
}

// observeRefused records a frame the server could not read as a request: a
// request, and an error, of no known op.
func (wm *wireMetrics) observeRefused() {
	wm.counts["other"].Inc()
	wm.errors["other"].Inc()
}

// SetTracer attaches a tracer: every request gets a root span (child spans
// accumulate as it descends the stack), currentOp lists in-flight requests,
// and getTraces serves the completed ring. Call before the server starts
// handling requests; a nil tracer (the default) disables tracing entirely.
func (s *Server) SetTracer(t *trace.Tracer) {
	s.tracer = t
	if t == nil {
		return
	}
	s.wm.registry.AddGaugeSource("docstore_trace", func() []metrics.Gauge {
		st := t.Stats()
		return []metrics.Gauge{
			{Name: "spans-started", Value: st.Started},
			{Name: "spans-sampled", Value: st.Sampled},
			{Name: "spans-slow", Value: st.Slow},
			{Name: "traces-retained", Value: st.Retained},
			{Name: "traces-dropped", Value: st.Dropped},
			{Name: "ops-in-flight", Value: int64(st.InFlight)},
		}
	})
}

// Tracer returns the attached tracer (nil when tracing is off).
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// Metrics returns the wire layer's metric registry: per-op request
// counters, error counters and latency histograms, plus the tracer's
// activity gauges. docstored merges it with the mongod registry on
// -metrics-addr.
func (s *Server) Metrics() *metrics.Registry { return s.wm.registry }

// traced reports whether the op gets a root span. Introspection ops are
// excluded so currentOp never lists itself and the trace ring is not
// churned by the observer.
func traced(op string) bool {
	return op != OpCurrentOp && op != OpGetTraces && op != OpPing
}

// filterViews applies the currentOp/getTraces request filters: a root-name
// prefix and a minimum duration (elapsed-so-far for in-flight spans).
func filterViews(views []trace.View, opName string, minDuration time.Duration) []trace.View {
	if opName == "" && minDuration <= 0 {
		return views
	}
	out := views[:0:0]
	for i := range views {
		if opName != "" && !strings.HasPrefix(views[i].Name, opName) {
			continue
		}
		if minDuration > 0 && views[i].Duration < minDuration {
			continue
		}
		out = append(out, views[i])
	}
	return out
}

// viewDoc renders one span view (and its subtree) as a wire document.
func viewDoc(v *trace.View) *bson.Doc {
	d := bson.D(
		"traceId", v.TraceID,
		"spanId", v.SpanID,
		"name", v.Name,
		"startUnixNano", v.Start.UnixNano(),
		"durationUS", v.Duration.Microseconds(),
	)
	if v.InFlight {
		d.Set("inFlight", true)
	}
	if len(v.Attrs) > 0 {
		attrs := bson.NewDoc(len(v.Attrs))
		for _, a := range v.Attrs {
			attrs.Set(a.Key, bson.Normalize(a.Value))
		}
		d.Set("attrs", attrs)
	}
	if len(v.Children) > 0 {
		arr := make([]any, len(v.Children))
		for i := range v.Children {
			arr[i] = viewDoc(&v.Children[i])
		}
		d.Set("children", arr)
	}
	return d
}

func viewDocs(views []trace.View, limit int) []*bson.Doc {
	if limit > 0 && len(views) > limit {
		views = views[:limit]
	}
	docs := make([]*bson.Doc, len(views))
	for i := range views {
		docs[i] = viewDoc(&views[i])
	}
	return docs
}
