package wire

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/mongod"
)

// TestObservabilityEndToEnd is the acceptance path for the telemetry the
// server serves: one traced w:2 write against a named collection must yield
//
//   - one sample in the primary's per-op duration histogram on /metrics,
//   - a span tree retained for getTraces,
//   - replication-lag, WAL-fsync and change-stream watcher-depth health in
//     serverStatus.
func TestObservabilityEndToEnd(t *testing.T) {
	srv := startTracedCluster(t)

	// A live watcher, so serverStatus has a buffer depth to report.
	if resp := srv.Handle(&Request{Op: OpWatch, DB: "db", Collection: "c"}); resp.Error != "" {
		t.Fatalf("watch: %s", resp.Error)
	}

	resp := srv.Handle(&Request{
		Op: OpInsert, DB: "db", Collection: "c",
		Doc:          bson.D(bson.IDKey, 1, "k", 1),
		WriteConcern: bson.D("w", 2),
	})
	if resp.Error != "" {
		t.Fatalf("insert: %s", resp.Error)
	}

	// The insert executed on shard primary A as a one-op batch, which is
	// labeled by its op's kind whatever the write concern.
	var b strings.Builder
	srv.d.Server().Metrics().WritePrometheus(&b)
	series := `docstore_mongod_op_duration_seconds_count{op="insert"} 1`
	if exposition := b.String(); !strings.Contains(exposition, series) {
		t.Fatalf("per-op histogram series missing, want %q in:\n%s", series, exposition)
	}

	// The insert's tree is retained and served by getTraces.
	traces := srv.Handle(&Request{Op: OpGetTraces})
	if traces.Error != "" {
		t.Fatalf("getTraces: %s", traces.Error)
	}
	found := false
	for _, d := range traces.Docs {
		if name, _ := d.Get("name"); name == "wire.insert" {
			found = true
		}
	}
	if !found {
		t.Fatalf("getTraces has no wire.insert root: %d traces", len(traces.Docs))
	}

	// serverStatus: cluster health gauges.
	st := srv.Handle(&Request{Op: OpStats, DB: "db"})
	if st.Error != "" {
		t.Fatalf("serverStatus: %s", st.Error)
	}
	status := st.Docs[0]

	replAny, ok := status.Get("repl")
	if !ok {
		t.Fatalf("serverStatus has no repl section: %s", status.ToJSON())
	}
	memberDocs, _ := replAny.(*bson.Doc).Get("members")
	members := memberDocs.([]any)
	if len(members) != 3 {
		t.Fatalf("repl members = %d, want 3", len(members))
	}
	for _, m := range members {
		md := m.(*bson.Doc)
		if _, ok := md.Get("lag"); !ok {
			t.Fatalf("member doc missing lag: %s", md.ToJSON())
		}
		if _, ok := md.Get("applyAgeUS"); !ok {
			t.Fatalf("member doc missing applyAgeUS: %s", md.ToJSON())
		}
	}
	// The w:2 write was acknowledged by a second member, so at least two
	// members sit at the tip.
	caughtUp := 0
	for _, m := range members {
		if lag, _ := m.(*bson.Doc).Get("lag"); lag == int64(0) {
			caughtUp++
		}
	}
	if caughtUp < 2 {
		t.Fatalf("w:2 acknowledged but only %d members at the tip: %s", caughtUp, status.ToJSON())
	}

	walAny, ok := status.Get("wal")
	if !ok {
		t.Fatalf("serverStatus has no wal section: %s", status.ToJSON())
	}
	walDoc := walAny.(*bson.Doc)
	if n, _ := walDoc.Get("fsyncCount"); n == int64(0) {
		t.Fatalf("journaled write left fsyncCount at 0: %s", walDoc.ToJSON())
	}
	if _, ok := walDoc.Get("groupCommitMeanBatch"); !ok {
		t.Fatalf("wal section missing groupCommitMeanBatch: %s", walDoc.ToJSON())
	}

	csAny, ok := status.Get("changeStreams")
	if !ok {
		t.Fatalf("serverStatus has no changeStreams section: %s", status.ToJSON())
	}
	depthsAny, ok := csAny.(*bson.Doc).Get("watcherDepths")
	if !ok {
		t.Fatalf("changeStreams missing watcherDepths: %s", csAny.(*bson.Doc).ToJSON())
	}
	depths := depthsAny.([]any)
	if len(depths) != 1 {
		t.Fatalf("watcherDepths = %d entries, want the one live watcher", len(depths))
	}
	depth := depths[0].(*bson.Doc)
	if db, _ := depth.Get("db"); db != "db" {
		t.Fatalf("watcher depth doc = %s", depth.ToJSON())
	}
	if capacity, _ := depth.Get("capacity"); capacity == int64(0) {
		t.Fatalf("watcher capacity = 0: %s", depth.ToJSON())
	}
}

// TestWireRequestMetricsPerOp sends each request to a fresh server and reads
// the wire layer's exposition: the request lands in its op's counter and
// latency histogram, a failed one in its op's error counter too, and an op
// the protocol does not know under "other". No other op's series moves.
func TestWireRequestMetricsPerOp(t *testing.T) {
	doc := bson.D(bson.IDKey, 1, "k", 1)
	for _, tc := range []struct {
		name   string
		before []*Request
		req    *Request
		op     string
		failed bool
	}{
		{name: "ping", req: &Request{Op: OpPing}, op: OpPing},
		{name: "find", req: &Request{Op: OpFind, DB: "db", Collection: "c"}, op: OpFind},
		{name: "duplicate insert",
			before: []*Request{{Op: OpInsert, DB: "db", Collection: "c", Doc: doc}},
			req:    &Request{Op: OpInsert, DB: "db", Collection: "c", Doc: doc}, op: OpInsert, failed: true},
		{name: "getExemplars", req: &Request{Op: "getExemplars", DB: "db"}, op: "other", failed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(mongod.NewServer(mongod.Options{Name: "metrics"}))
			for _, req := range tc.before {
				if resp := srv.Handle(req); resp.Error != "" {
					t.Fatalf("%s: %s", req.Op, resp.Error)
				}
			}
			baseline := make(map[string]int64, len(knownWireOps))
			for _, op := range knownWireOps {
				baseline[op] = srv.wm.counts[op].Value()
			}
			if resp := srv.Handle(tc.req); (resp.Error != "") != tc.failed {
				t.Fatalf("%s answered error %q, want failed=%v", tc.req.Op, resp.Error, tc.failed)
			}

			var b strings.Builder
			srv.Metrics().WritePrometheus(&b)
			out := b.String()
			calls := baseline[tc.op] + 1
			errs := 0
			if tc.failed {
				errs = 1
			}
			for _, series := range []string{
				fmt.Sprintf("%s{op=%q} %d\n", metricRequestsTotal, tc.op, calls),
				fmt.Sprintf("%s{op=%q} %d\n", metricRequestErrors, tc.op, errs),
				fmt.Sprintf("%s_count{op=%q} %d\n", metricRequestDuration, tc.op, calls),
			} {
				if !strings.Contains(out, series) {
					t.Fatalf("exposition lacks %q:\n%s", series, out)
				}
			}
			for _, op := range knownWireOps {
				if got := srv.wm.counts[op].Value(); op != tc.op && got != baseline[op] {
					t.Fatalf("%s request moved the %s counter from %d to %d", tc.req.Op, op, baseline[op], got)
				}
			}
		})
	}
}

// TestTraceFiltersOverTheWire drives the filtered introspection ops through
// a real socket: opName narrows getTraces to one root, an unsatisfiable
// duration floor empties it, idle currentOp stays empty under any filter,
// and the exemplar listing is no longer an op.
func TestTraceFiltersOverTheWire(t *testing.T) {
	srv := startTracedCluster(t)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Insert("db", "c", bson.D(bson.IDKey, 1, "k", 1)); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := c.Find("db", "c", bson.D("k", 1), nil, 0); err != nil {
		t.Fatalf("find: %v", err)
	}

	all, err := c.TracesFiltered(TraceFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("unfiltered traces = %d, want 2", len(all))
	}
	inserts, err := c.TracesFiltered(TraceFilter{OpName: "wire.insert"})
	if err != nil {
		t.Fatal(err)
	}
	if len(inserts) != 1 {
		t.Fatalf("opName-filtered traces = %d, want 1", len(inserts))
	}
	if name, _ := inserts[0].Get("name"); name != "wire.insert" {
		t.Fatalf("filtered root = %v", name)
	}
	// The filter runs before the limit: asking for one trace at least an
	// hour long returns nothing rather than the newest trace.
	none, err := c.TracesFiltered(TraceFilter{MinDuration: time.Hour, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("hour-floor returned %d traces", len(none))
	}
	ops, err := c.CurrentOpFiltered(TraceFilter{OpName: "wire."})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("idle filtered currentOp = %d ops", len(ops))
	}

	// The shell sends getExemplars with its default db, as here.
	if _, err := c.Do(&Request{Op: "getExemplars", DB: "db"}); err == nil || !strings.Contains(err.Error(), `unknown op "getExemplars"`) {
		t.Fatalf("getExemplars: %v, want unknown op", err)
	}
}
