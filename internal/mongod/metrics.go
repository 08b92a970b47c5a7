package mongod

import (
	"time"

	"docstore/internal/metrics"
)

// Prometheus metric family names the mongod layer exports. The wire layer
// exports the matching docstore_wire_* families; doc.go's Observability
// section is the name map.
const (
	metricOpsTotal   = "docstore_mongod_ops_total"
	metricOpDuration = "docstore_mongod_op_duration_seconds"
	// WAL health families, attached when durability is enabled: fsync
	// latency and the group-commit batch size each fsync covered.
	metricWALFsyncDuration = "docstore_wal_fsync_duration_seconds"
	metricWALBatchSize     = "docstore_wal_group_commit_batch_size"
)

// knownOps are the op kinds the execution layer profiles. They are
// registered eagerly at server construction so a metrics scrape sees every
// family (and every op series) before any traffic arrives; an op outside
// the list records under "other".
var knownOps = []string{"insert", "find", "update", "delete", "aggregate", "bulkWrite", "other"}

// opMetrics holds the per-op counter and latency histogram handles. The
// maps are built once at construction and never mutated, so the hot path
// reads them without locks; the handles themselves are atomic.
type opMetrics struct {
	registry *metrics.Registry
	counts   map[string]*metrics.Counter
	hists    map[string]*metrics.Histogram
}

func newOpMetrics() opMetrics {
	om := opMetrics{
		registry: metrics.NewRegistry(),
		counts:   make(map[string]*metrics.Counter, len(knownOps)),
		hists:    make(map[string]*metrics.Histogram, len(knownOps)),
	}
	for _, op := range knownOps {
		om.counts[op] = om.registry.Counter(metricOpsTotal, "operations executed by the mongod layer", "op", op)
		om.hists[op] = om.registry.Histogram(metricOpDuration, "mongod operation latency", "op", op)
	}
	return om
}

// observe records one completed operation. Unlike the profiler, which keeps
// only slow ops, every operation lands in its histogram — the histograms
// are the always-on percentile source the /metrics endpoint exports.
func (om *opMetrics) observe(op string, elapsed time.Duration) {
	c, ok := om.counts[op]
	if !ok {
		op = "other"
		c = om.counts[op]
	}
	c.Inc()
	om.hists[op].Observe(elapsed)
}

// Metrics returns the server's metric registry: per-op counters and latency
// histograms, plus the MVCC engine gauges as a polled gauge source.
// docstored merges it with the wire layer's registry on -metrics-addr.
func (s *Server) Metrics() *metrics.Registry { return s.om.registry }

// OpDurations returns a snapshot of the latency histogram for one op kind
// ("insert", "find", "update", "delete", "aggregate", "bulkWrite") — the
// in-process view of the percentiles /metrics exports.
func (s *Server) OpDurations(op string) metrics.HistogramSnapshot {
	h, ok := s.om.hists[op]
	if !ok {
		h = s.om.hists["other"]
	}
	return h.Snapshot()
}
