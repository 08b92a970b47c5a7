package wire

import (
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/driver"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/replset"
	"docstore/internal/sharding"
	"docstore/internal/trace"
	"docstore/internal/wal"
)

// startTracedCluster fronts a sharded, replicated, durable deployment with a
// traced wire server: one shard backed by a 3-member replica set whose
// primary journals to a real WAL, behind a mongos router, behind the wire
// server, with every request's trace retained (sample rate 1).
func startTracedCluster(t *testing.T) *Server {
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
	if _, err := router.EnableSharding("db", "c", bson.D("k", 1)); err != nil {
		t.Fatal(err)
	}

	srv := Serve(driver.NewRouted(rs.Primary(), router))
	srv.SetTracer(trace.New(trace.Options{SampleRate: 1}))
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestTracedWriteSpansEveryLayer is the end-to-end observability contract:
// one acknowledged write produces a single span tree that crosses the wire
// handler, the mongos shard fan-out, the shard's mongod execution, the
// storage apply, the WAL group-commit wait, and — under w:2 — the replica
// set's oplog and quorum waits overlapping it, all correctly nested and all
// finished.
func TestTracedWriteSpansEveryLayer(t *testing.T) {
	srv := startTracedCluster(t)

	resp := srv.Handle(&Request{
		Op: OpInsert, DB: "db", Collection: "c",
		Doc:          bson.D(bson.IDKey, 1, "k", 1),
		WriteConcern: bson.D("w", 2),
	})
	if resp.Error != "" {
		t.Fatalf("insert: %s", resp.Error)
	}

	views := srv.Tracer().Traces(0)
	if len(views) != 1 {
		t.Fatalf("retained %d traces, want 1", len(views))
	}
	root := views[0]
	if root.Name != "wire.insert" {
		t.Fatalf("root span %q, want wire.insert", root.Name)
	}
	if db, _ := root.Attr("db"); db != "db" {
		t.Fatalf("root db attr = %v", db)
	}

	// Every layer's span must be present somewhere under the root.
	for _, name := range []string{
		"mongos.shard",
		"mongod.bulkWrite",
		"storage.bulkWrite",
		"storage.apply",
		"wal.commitWait",
		"replset.oplogCommitWait",
		"replset.quorumWait",
	} {
		if root.Find(name) == nil {
			t.Errorf("span %q missing from trace:\n%s", name, dumpView(&root, 0))
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Nesting must mirror the call stack: the storage commit happened inside
	// the shard's mongod execution, inside the mongos fan-out.
	shard := root.Find("mongos.shard")
	if got, _ := shard.Attr("shard"); got != "shard0" {
		t.Fatalf("shard attr = %v", got)
	}
	mongodSpan := shard.Find("mongod.bulkWrite")
	if mongodSpan == nil {
		t.Fatalf("mongod.bulkWrite not nested under mongos.shard:\n%s", dumpView(&root, 0))
	}
	storageSpan := mongodSpan.Find("storage.bulkWrite")
	if storageSpan == nil {
		t.Fatalf("storage.bulkWrite not nested under mongod.bulkWrite:\n%s", dumpView(&root, 0))
	}
	// The journal wait is the write's, not the engine's: it sits beside
	// storage.bulkWrite under the mongod span, which stays open until the
	// primary's record is durable.
	walSpan := mongodSpan.Find("wal.commitWait")
	if walSpan == nil || storageSpan.Find("wal.commitWait") != nil {
		t.Fatalf("wal.commitWait not a sibling of storage.bulkWrite under mongod.bulkWrite:\n%s", dumpView(&root, 0))
	}
	// The replica set's waits belong to the shard call, not to the primary's
	// execution, and they overlap it: the oplog wait began while the
	// primary's write was still waiting on its journal.
	oplogSpan := shard.Find("replset.oplogCommitWait")
	if oplogSpan == nil || shard.Find("replset.quorumWait") == nil ||
		mongodSpan.Find("replset.oplogCommitWait") != nil || mongodSpan.Find("replset.quorumWait") != nil {
		t.Fatalf("replset waits not siblings of mongod.bulkWrite under mongos.shard:\n%s", dumpView(&root, 0))
	}
	if journalEnd := mongodSpan.Start.Add(mongodSpan.Duration); oplogSpan.Start.After(journalEnd) {
		t.Fatalf("oplog wait started %v after the primary's write was acknowledged; the waits must overlap",
			oplogSpan.Start.Sub(journalEnd))
	}
	if lsn, ok := storageSpan.Attr("lsn"); !ok || lsn.(int64) == 0 {
		t.Fatalf("storage.bulkWrite lsn attr = %v", lsn)
	}
	if need, _ := root.Find("replset.quorumWait").Attr("need"); need != 2 {
		t.Fatalf("quorumWait need attr = %v", need)
	}

	// One trace, consistently stamped: every span shares the root's trace id
	// and none is still marked in flight.
	assertFinished(t, &root, root.TraceID)
}

// TestTracedFindRecordsQueryPlan pins the read path's tree: a wire find
// descends into mongod execution and the storage planner span that records
// which index (or scan) served it and the snapshot version pinned.
func TestTracedFindRecordsQueryPlan(t *testing.T) {
	srv := startTracedCluster(t)
	if resp := srv.Handle(&Request{Op: OpInsert, DB: "db", Collection: "c", Doc: bson.D(bson.IDKey, 7, "k", 7)}); resp.Error != "" {
		t.Fatalf("seed insert: %s", resp.Error)
	}

	resp := srv.Handle(&Request{Op: OpFind, DB: "db", Collection: "c", Filter: bson.D("k", 7)})
	if resp.Error != "" {
		t.Fatalf("find: %s", resp.Error)
	}
	views := srv.Tracer().Traces(1)
	if len(views) != 1 || views[0].Name != "wire.find" {
		t.Fatalf("latest trace = %+v, want wire.find", views)
	}
	root := views[0]
	plan := root.Find("storage.plan")
	if plan == nil {
		t.Fatalf("storage.plan missing from find trace:\n%s", dumpView(&root, 0))
	}
	if idx, ok := plan.Attr("index"); !ok {
		t.Fatalf("plan index attr missing, attrs = %v", plan.Attrs)
	} else if idx == "" {
		t.Fatalf("plan index attr empty")
	}
	// The index work is on the span as it is on the plan line: one entry
	// read, and the filter's one clause answered by reading it.
	if keys, _ := plan.Attr("keysExamined"); keys != 1 {
		t.Fatalf("plan keysExamined attr = %v, want 1; attrs = %v", keys, plan.Attrs)
	}
	if covered, _ := plan.Attr("clausesCovered"); covered != 1 {
		t.Fatalf("plan clausesCovered attr = %v, want 1; attrs = %v", covered, plan.Attrs)
	}
	assertFinished(t, &root, root.TraceID)
}

// TestCurrentOpAndGetTracesOverTheWire drives the introspection ops through
// a real socket: getTraces returns the retained write's tree, currentOp is
// empty when nothing is executing, and neither op appears in the ring.
func TestCurrentOpAndGetTracesOverTheWire(t *testing.T) {
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
	traces, err := c.Traces(0)
	if err != nil {
		t.Fatalf("getTraces: %v", err)
	}
	if len(traces) != 1 {
		t.Fatalf("getTraces returned %d docs, want 1 (introspection must not self-trace)", len(traces))
	}
	if name, _ := traces[0].Get("name"); name != "wire.insert" {
		t.Fatalf("trace root name = %v", name)
	}
	if _, ok := traces[0].Get("children"); !ok {
		t.Fatalf("trace doc has no children: %s", traces[0].ToJSON())
	}
	ops, err := c.CurrentOp(0)
	if err != nil {
		t.Fatalf("currentOp: %v", err)
	}
	if len(ops) != 0 {
		t.Fatalf("currentOp lists %d ops while idle: %v", len(ops), ops)
	}
	// The introspection requests above must not have entered the ring.
	traces, err = c.Traces(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("ring grew to %d after introspection ops", len(traces))
	}
}

// assertFinished walks the tree checking every span finished and carries the
// root's trace id.
func assertFinished(t *testing.T, v *trace.View, traceID string) {
	t.Helper()
	if v.InFlight {
		t.Fatalf("span %q still in flight", v.Name)
	}
	if v.TraceID != traceID {
		t.Fatalf("span %q trace id %s, want %s", v.Name, v.TraceID, traceID)
	}
	for i := range v.Children {
		assertFinished(t, &v.Children[i], traceID)
	}
}

// dumpView renders a span tree for failure messages.
func dumpView(v *trace.View, depth int) string {
	out := ""
	for i := 0; i < depth; i++ {
		out += "  "
	}
	out += v.Name + "\n"
	for i := range v.Children {
		out += dumpView(&v.Children[i], depth+1)
	}
	return out
}
