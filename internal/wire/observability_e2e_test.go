package wire

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/replset"
	"docstore/internal/sharding"
	"docstore/internal/trace"
	"docstore/internal/wal"
)

// startObservedCluster is startTracedCluster plus the export pipeline: the
// tracer drains retained traces into an in-memory OTLP sink, and the primary
// member is returned so tests can scrape its metric registry directly.
func startObservedCluster(t *testing.T) (*Server, *mongod.Server, *trace.MemorySink) {
	t.Helper()
	members := []*mongod.Server{
		mongod.NewServer(mongod.Options{Name: "A"}),
		mongod.NewServer(mongod.Options{Name: "B"}),
		mongod.NewServer(mongod.Options{Name: "C"}),
	}
	if _, err := members[0].EnableDurability(mongod.Durability{Dir: t.TempDir(), Sync: wal.SyncGroupCommit}); err != nil {
		t.Fatalf("enabling durability: %v", err)
	}
	t.Cleanup(func() { members[0].CloseDurability() })
	rs, err := replset.New("rs0", members...)
	if err != nil {
		t.Fatal(err)
	}
	rs.StartReplication()
	t.Cleanup(rs.Close)

	router := mongos.NewRouter(sharding.NewConfigServer(), mongos.Options{})
	router.AddReplicaShard("shard0", rs)
	if _, err := router.EnableSharding("db", "c", bson.D("k", 1), 1<<20); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(rs.Primary())
	srv.SetReplicaSet(router)
	tr := trace.New(trace.Options{SampleRate: 1})
	sink := &trace.MemorySink{}
	exp := trace.NewExporter(sink, "docstored-test", 0)
	tr.SetExporter(exp)
	srv.SetTracer(tr)
	t.Cleanup(func() { exp.Close() })
	t.Cleanup(func() { srv.Close() })
	return srv, members[0], sink
}

// TestObservabilityEndToEnd is the acceptance path for the labeled-telemetry
// pipeline: one traced w:2 write against a named collection must yield
//
//   - a {collection, shard, op} labeled duration histogram in the Prometheus
//     exposition, carrying an exemplar,
//   - a span tree exported through the OTLP-shaped sink whose trace ID
//     matches that exemplar (and resolves via getTraces),
//   - replication-lag, WAL-fsync and change-stream watcher-depth health in
//     serverStatus.
func TestObservabilityEndToEnd(t *testing.T) {
	srv, primary, sink := startObservedCluster(t)

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

	// The labeled family: the insert executed on shard primary A as a
	// one-op batch against db.c, which is labeled by its op's kind whatever
	// the write concern, so exactly that series must hold the sample —
	// with an exemplar, because the trace was sampled at start. Exemplars
	// ride only the OpenMetrics exposition; the classic format (checked
	// below) must stay parseable by version=0.0.4 scrapers.
	var b strings.Builder
	primary.Metrics().WriteOpenMetrics(&b)
	exposition := b.String()
	series := `docstore_mongod_collection_op_duration_seconds_count{collection="db.c",op="insert",shard="A"} 1`
	if !strings.Contains(exposition, series) {
		t.Fatalf("labeled histogram series missing, want %q in:\n%s", series, exposition)
	}
	exemplarRE := regexp.MustCompile(
		`docstore_mongod_collection_op_duration_seconds_bucket\{collection="db\.c",op="insert",shard="A",le="[^"]+"\} \d+ # \{trace_id="([0-9a-f]+)"\}`)
	m := exemplarRE.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("no exemplar on the labeled series:\n%s", exposition)
	}
	exemplarID := m[1]

	// The same registry rendered classically must carry the series but no
	// exemplar suffix — classic-format parsers reject `#` after the value.
	b.Reset()
	primary.Metrics().WritePrometheus(&b)
	if classic := b.String(); !strings.Contains(classic, series) {
		t.Fatalf("labeled series missing from classic exposition:\n%s", classic)
	} else if strings.Contains(classic, "# {trace_id=") {
		t.Fatalf("classic exposition carries an exemplar:\n%s", classic)
	}

	// The exemplar's trace resolves through getTraces as the insert's tree.
	views := srv.Tracer().Traces(0)
	var root *trace.View
	for i := range views {
		if views[i].TraceID == exemplarID {
			root = &views[i]
		}
	}
	if root == nil || root.Name != "wire.insert" {
		t.Fatalf("exemplar trace %s not retained as wire.insert (views: %+v)", exemplarID, views)
	}

	// The same trace went through the OTLP export path: one NDJSON-able
	// payload whose 32-hex trace id ends in our 16-hex id, shaped as
	// resourceSpans -> scopeSpans -> spans.
	srv.Tracer().Exporter().Flush()
	var payload []byte
	for _, p := range sink.Exports() {
		if strings.Contains(string(p), `"wire.insert"`) {
			payload = p
		}
	}
	if payload == nil {
		t.Fatalf("insert trace never reached the OTLP sink (%d payloads)", len(sink.Exports()))
	}
	var otlp struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID string `json:"traceId"`
					Name    string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(payload, &otlp); err != nil {
		t.Fatalf("payload is not OTLP-shaped JSON: %v\n%s", err, payload)
	}
	spans := otlp.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) < 2 {
		t.Fatalf("exported %d spans, want the whole tree", len(spans))
	}
	for _, sp := range spans {
		if len(sp.TraceID) != 32 || !strings.HasSuffix(sp.TraceID, exemplarID) {
			t.Fatalf("exported span %q trace id %q does not match exemplar %s", sp.Name, sp.TraceID, exemplarID)
		}
	}

	// The exemplar is also queryable through the wire op.
	eRes := srv.Handle(&Request{Op: OpGetExemplars, Metric: "docstore_mongod_collection_op_duration_seconds"})
	if eRes.Error != "" || len(eRes.Docs) == 0 {
		t.Fatalf("getExemplars: %q, %d docs", eRes.Error, len(eRes.Docs))
	}
	if labels, _ := eRes.Docs[0].Get("labels"); !strings.Contains(labels.(string), `collection="db.c"`) {
		t.Fatalf("exemplar doc labels = %v", labels)
	}
	if !strings.Contains(eRes.Docs[0].ToJSON(), exemplarID) {
		t.Fatalf("exemplar doc lost the trace id: %s", eRes.Docs[0].ToJSON())
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

// TestTraceFiltersAndExemplarsOverTheWire drives the filtered introspection
// ops through a real socket: opName narrows getTraces to one root, an
// unsatisfiable duration floor empties it, idle currentOp stays empty under
// any filter, and getExemplars returns the wire layer's own series.
func TestTraceFiltersAndExemplarsOverTheWire(t *testing.T) {
	srv, _, _ := startObservedCluster(t)
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

	// Both handled ops were traced, so the wire latency family has exemplars.
	ex, err := c.Exemplars(metricRequestDuration)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) == 0 {
		t.Fatalf("no exemplars for %s", metricRequestDuration)
	}
	for _, doc := range ex {
		if name, _ := doc.Get("name"); name != metricRequestDuration {
			t.Fatalf("metric filter leaked series %v", name)
		}
	}
}
