package main

import (
	"fmt"
	"runtime"
	"strings"
)

// perLayer lists the per-layer metrics, printed with -trace 1. The prefix is
// the module (internal/<prefix>) the metric describes. Two kinds:
//
//   - Counts, times and shares taken from the traced run of the workload
//     itself. A workload reports them for the layers it enters. The analytic
//     workloads have no load generator, wire, WAL or replica set, the wire
//     workloads no TPC-DS set-up, translation layer, router or aggregation:
//     those are absent from the workload's table, and 0 in the result line,
//     which has to carry every declared name. They are all costs (lower is
//     better; a rate is written as time per document), so that 0 reads as
//     "no work done there" and never as the worst value.
//   - Times taken by the layer probes (probes.go), which call a layer's
//     public functions directly on a sample of the workload's own documents.
//     Every workload stores BSON documents in indexed storage collections
//     behind mongod, so the bson, query, index, storage and mongod probes
//     run everywhere; the wire, wal, changestream and replset probes run
//     where the workload has that layer.
var perLayer = []metricSpec{
	// The traced run as a whole.
	{"bench.trace_overhead_frac", "frac"},
	{"go.alloc_b_per_op", "B"},
	{"go.allocs_per_op", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.gc_cpu_frac", "frac"},
	// Set-up, analytic workloads; denorm.* on analytic_denorm only.
	{"tpcds.gen_s", "s"},
	{"migrate.load_s", "s"},
	{"migrate.us_per_doc", "us"},
	{"migrate.index_s", "s"},
	{"denorm.build_s", "s"},
	{"denorm.us_per_doc", "us"},
	{"denorm.index_s", "s"},
	// Query path, analytic workloads; mongos.* and sharding.* on
	// analytic_sharded only, aggregate.* and mongod.aggregate_ms on
	// analytic_denorm only.
	{"queries.self_ms", "ms"},
	{"translate.self_ms", "ms"},
	{"translate.store_calls", "count"},
	{"driver.calls", "count"},
	{"driver.busy_ms", "ms"},
	{"mongos.shard_calls", "count"},
	{"mongos.broadcast_frac", "frac"},
	{"mongos.docs_merged", "count"},
	{"mongos.overhead_ms", "ms"},
	{"sharding.chunks", "count"},
	{"sharding.docs_skew", "ratio"},
	{"aggregate.q7_ms", "ms"},
	{"aggregate.q21_ms", "ms"},
	{"aggregate.q46_ms", "ms"},
	{"aggregate.q50_ms", "ms"},
	{"aggregate.docs_in_per_out", "count"},
	{"mongod.aggregate_ms", "ms"},
	// Serving path, wire workloads; replset.* on ingest_replicated only.
	{"loadgen.late_frac", "frac"},
	{"loadgen.max_late_ms", "ms"},
	{"loadgen.slo_miss_frac", "frac"},
	{"loadgen.open_p50_ms", "ms"},
	{"loadgen.open_tail_ms", "ms"},
	{"wal.syncs_per_write", "count"},
	{"wal.bytes_per_user_b", "ratio"},
	{"wal.replay_us_per_doc", "us"},
	{"wal.append_us", "us"},
	{"wal.fsync_p50_us", "us"},
	{"storage.live_versions_max", "count"},
	{"wire.rtt_us", "us"},
	{"wire.handle_us", "us"},
	{"wire.transport_us", "us"},
	{"wire.bytes_per_op", "B"},
	{"changestream.deliver_us", "us"},
	{"replset.lag_max", "count"},
	{"replset.ack_wait_us", "us"},
	// Every workload.
	{"mongod.docs_examined_per_result", "count"},
	{"mongod.find_us", "us"},
	{"storage.heap_b_per_user_b", "ratio"},
	{"storage.find_us", "us"},
	{"storage.scan_us", "us"},
	{"storage.update_us", "us"},
	{"storage.cow_b_per_write", "B"},
	{"storage.pages_copied_per_write", "count"},
	{"storage.tree_b_copied_per_write", "B"},
	{"index.insert_ns", "ns"},
	{"index.lookup_ns", "ns"},
	{"index.tree_b_per_key", "B"},
	{"query.compile_ns", "ns"},
	{"query.match_ns", "ns"},
	{"bson.to_json_ns_per_kb", "ns"},
	{"bson.from_json_ns_per_kb", "ns"},
	{"bson.encode_ns_per_kb", "ns"},
}

// goStats is the part of runtime.MemStats the go.* metrics difference.
type goStats struct {
	allocBytes, mallocs, pauseNs uint64
	gcCPU                        float64
}

func readGo() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{m.TotalAlloc, m.Mallocs, m.PauseTotalNs, m.GCCPUFraction}
}

// goRows reports allocation and collector cost over a traced phase of ops
// operations. The server runs in-process, so this is client and server.
func goRows(rep *report, before, after goStats, ops int) {
	n := float64(ops)
	rep.add("go.alloc_b_per_op", float64(after.allocBytes-before.allocBytes)/n, "B", "bytes allocated per operation, client and in-process server")
	rep.add("go.allocs_per_op", float64(after.mallocs-before.mallocs)/n, "count", "allocations per operation")
	rep.add("go.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms", "stop-the-world pause total over the traced closed-loop phase")
	rep.add("go.gc_cpu_frac", after.gcCPU, "frac", "share of CPU the collector used since the process started")
}

// specsWithPrefix returns the per-layer metrics whose names start with one
// of the prefixes.
func specsWithPrefix(prefixes ...string) []metricSpec {
	var out []metricSpec
	for _, s := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(s.name, p) {
				out = append(out, s)
			}
		}
	}
	return out
}

// servingSpecs are the metrics only the wire workloads have.
func servingSpecs() []metricSpec {
	return specsWithPrefix("loadgen.", "wal.", "wire.", "changestream.", "replset.", "storage.live_versions_max")
}

// analyticSpecs are the metrics only the analytic workloads have.
func analyticSpecs() []metricSpec {
	return specsWithPrefix("tpcds.", "migrate.", "denorm.", "queries.", "translate.", "driver.", "mongos.", "sharding.", "aggregate.", "mongod.aggregate")
}

func init() {
	seen := make(map[string]bool)
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[s.name] {
			panic(fmt.Sprintf("metric %s is declared twice", s.name))
		}
		seen[s.name] = true
	}
}
