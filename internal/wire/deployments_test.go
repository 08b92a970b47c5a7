package wire

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/replset"
	"docstore/internal/sharding"
	"docstore/internal/trace"
	"docstore/internal/wal"
)

// deployment is one wire server and the mongod servers its writes execute on.
type deployment struct {
	name      string
	srv       *Server
	executors []*mongod.Server
}

func durableServer(t *testing.T, name string) *mongod.Server {
	t.Helper()
	s := mongod.NewServer(mongod.Options{Name: name})
	if _, err := s.EnableDurability(mongod.Durability{Dir: t.TempDir(), Sync: wal.SyncGroupCommit}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.CloseDurability() })
	return s
}

// threeDeployments builds the three shapes docstored serves — a stand-alone
// server, a replica set behind SetReplicaSet and a two-shard cluster behind
// SetRouter — every executing server durable and every request traced.
func threeDeployments(t *testing.T) []deployment {
	t.Helper()
	alone := durableServer(t, "alone")

	primary := durableServer(t, "rs-A")
	rs, err := replset.New("rs0", primary, mongod.NewServer(mongod.Options{Name: "rs-B"}), mongod.NewServer(mongod.Options{Name: "rs-C"}))
	if err != nil {
		t.Fatal(err)
	}
	rs.StartReplication()
	t.Cleanup(rs.Close)
	replicated := NewServer(primary)
	replicated.SetReplicaSet(rs)

	router := mongos.NewRouter(sharding.NewConfigServer(), mongos.Options{})
	shards := []*mongod.Server{durableServer(t, "s0"), durableServer(t, "s1")}
	for _, s := range shards {
		router.AddShard(s.Name(), s)
	}
	routed := NewServer(mongod.NewServer(mongod.Options{Name: "router-front"}))
	routed.SetRouter(router)
	if resp := routed.Handle(&Request{Op: OpShardCollection, DB: "db", Collection: "c", Keys: bson.D("k", "hashed")}); !resp.OK {
		t.Fatalf("shardCollection: %s", resp.Error)
	}

	ds := []deployment{
		{"stand-alone", NewServer(alone), []*mongod.Server{alone}},
		{"replica set", replicated, []*mongod.Server{primary}},
		{"router", routed, shards},
	}
	for _, d := range ds {
		d.srv.SetTracer(trace.New(trace.Options{SampleRate: 1}))
		srv := d.srv
		t.Cleanup(func() { srv.Close() })
	}
	return ds
}

func item(id int) *bson.Doc { return bson.D(bson.IDKey, id, "k", id, "g", id%3, "v", 0) }

func items(lo, hi int) []*bson.Doc {
	docs := make([]*bson.Doc, 0, hi-lo)
	for id := lo; id < hi; id++ {
		docs = append(docs, item(id))
	}
	return docs
}

// requestScript is the sequence every deployment must answer alike: the five
// write ops with and without a write concern, reads with and without a
// cursor, and index and collection management. Reads sort, and no insertMany
// fails (ordered on one server, unordered through a router, by design), so
// the replies are meant to agree to the byte. It is built anew per
// deployment because an insert stores the document it is sent.
func requestScript() []*Request {
	journaled, majority := bson.D("j", true), bson.D("w", "majority")
	inc := bson.D("$inc", bson.D("v", 1))
	byID := bson.D(bson.IDKey, 1)
	groupByG := []*bson.Doc{
		bson.D("$match", bson.D("v", bson.D("$gte", 0))),
		bson.D("$group", bson.D(bson.IDKey, "$g", "n", bson.D("$sum", 1), "v", bson.D("$sum", "$v"))),
		bson.D("$sort", byID),
	}
	reqs := []*Request{
		{Op: OpEnsureIndex, Keys: bson.D("g", 1)},
		{Op: OpInsert, Doc: item(1)},
		{Op: OpInsert, Doc: item(2), WriteConcern: journaled},
		{Op: OpInsert, Doc: item(1)}, // duplicate _id
		{Op: OpInsert},               // no document
		{Op: OpInsertMany, Docs: items(3, 12)},
		{Op: OpInsertMany, Docs: items(12, 16), WriteConcern: majority},
		{Op: OpUpdate, Filter: bson.D("k", 3), Update: inc},
		{Op: OpUpdate, Filter: bson.D("g", 1), Update: inc, Multi: true, WriteConcern: journaled},
		{Op: OpUpdate, Filter: bson.D(bson.IDKey, 40, "k", 40), Update: inc, Upsert: true, Journaled: true},
		{Op: OpUpdate, Filter: bson.D("k", 3), Update: bson.D("$inc", bson.D("v", "one"))}, // fails on every deployment
		{Op: OpDelete, Filter: bson.D("k", 4)},
		{Op: OpDelete, Filter: bson.D("g", 2, "v", 0), Multi: true, WriteConcern: majority},
		{Op: OpBulkWrite, Ordered: true, Docs: []*bson.Doc{
			BulkInsertOp(item(20)), BulkUpdateOp(bson.D("k", 20), inc, false, false), BulkDeleteOp(bson.D("k", 6), false),
		}},
		{Op: OpBulkWrite, WriteConcern: journaled, Docs: []*bson.Doc{
			BulkInsertOp(item(21)), BulkInsertOp(item(1)), BulkUpdateOp(bson.D("g", 0), inc, true, false), BulkDeleteOp(bson.D("k", 7), false),
		}},
		{Op: OpFind, Sort: byID},
		{Op: OpFind, Filter: bson.D("g", 1), Sort: bson.D("k", -1), Limit: 3},
		{Op: OpFind, Sort: byID, BatchSize: 4},
		{Op: OpCount, Filter: bson.D("v", bson.D("$gte", 1))},
		{Op: OpAggregate, Docs: groupByG},
		{Op: OpAggregate, Docs: groupByG, BatchSize: 2},
		{Op: OpListColls},
		{Op: OpDrop},
		{Op: OpDrop},
		{Op: OpListColls},
		{Op: OpCount},
	}
	for _, r := range reqs {
		r.DB, r.Collection = "db", "c"
	}
	return reqs
}

// reply renders what the deployments are meant to agree on: everything but
// the cursor's id, of which only "one remains open" is comparable.
func reply(resp *Response) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ok=%v n=%d error=%q cursor=%v", resp.OK, resp.N, resp.Error, resp.CursorID != 0)
	if resp.Result != nil {
		b.WriteString(" result=" + resp.Result.ToJSON())
	}
	for _, d := range resp.Docs {
		b.WriteString("\n  " + d.ToJSON())
	}
	return b.String()
}

// spanNames flattens a trace to its sorted span names: the shape of the
// path a request took, whatever order parallel children finished in.
func spanNames(v trace.View) []string {
	names := []string{v.Name}
	for _, c := range v.Children {
		names = append(names, spanNames(c)...)
	}
	sort.Strings(names)
	return names
}

func (d deployment) opCount(op string) int64 {
	var n int64
	for _, s := range d.executors {
		n += s.OpDurations(op).Count
	}
	return n
}

// TestOneRequestScriptThreeDeployments sends one request script to a
// stand-alone, a replicated and a routed wire server and requires the same
// replies; then, per deployment, that a write takes the same traced path and
// lands under the same op label with and without a write concern.
func TestOneRequestScriptThreeDeployments(t *testing.T) {
	ds := threeDeployments(t)
	want := make([]string, 0, 32)
	for di, d := range ds {
		for i, req := range requestScript() {
			resp := d.srv.Handle(req)
			got := reply(resp)
			if resp.CursorID != 0 {
				if kill := d.srv.Handle(&Request{Op: OpKillCursors, DB: "db", CursorID: resp.CursorID}); kill.N != 1 {
					t.Fatalf("%s: request %d (%s): cursor %d could not be killed", d.name, i, req.Op, resp.CursorID)
				}
			}
			if di == 0 {
				want = append(want, got)
			} else if got != want[i] {
				t.Fatalf("request %d (%s):\n%s answered\n%s\n%s answered\n%s", i, req.Op, d.name, got, ds[0].name, want[i])
			}
		}
	}

	for _, d := range ds {
		id := 100
		for _, w := range []struct {
			op  string
			req func() *Request
		}{
			{"insert", func() *Request { id++; return &Request{Op: OpInsert, Doc: item(id)} }},
			{"update", func() *Request {
				return &Request{Op: OpUpdate, Filter: bson.D("k", id), Update: bson.D("$inc", bson.D("v", 1))}
			}},
			{"delete", func() *Request { id--; return &Request{Op: OpDelete, Filter: bson.D("k", id+1)} }},
		} {
			var plainPath []string
			for _, wc := range []*bson.Doc{nil, bson.D("j", true)} {
				req := w.req()
				req.DB, req.Collection, req.WriteConcern = "db", "c", wc
				underKind, underBulk := d.opCount(w.op), d.opCount("bulkWrite")
				if resp := d.srv.Handle(req); !resp.OK || resp.N != 1 {
					t.Fatalf("%s: %s %v: %+v", d.name, w.op, wc, resp)
				}
				if k, b := d.opCount(w.op)-underKind, d.opCount("bulkWrite")-underBulk; k != 1 || b != 0 {
					t.Fatalf("%s: a one-op %s with writeConcern %v was recorded %d times as %q and %d as bulkWrite, want 1 and 0", d.name, w.op, wc, k, w.op, b)
				}
				path := spanNames(d.srv.Tracer().Traces(1)[0])
				if wc == nil {
					plainPath = path
					for _, layer := range []string{"wire." + w.op, "mongod.bulkWrite", "storage.bulkWrite", "wal.commitWait"} {
						if i := sort.SearchStrings(path, layer); i == len(path) || path[i] != layer {
							t.Fatalf("%s: a plain %s has no %s span: %v", d.name, w.op, layer, path)
						}
					}
				} else if fmt.Sprint(path) != fmt.Sprint(plainPath) {
					t.Fatalf("%s: %s took %v plain and %v with %v", d.name, w.op, plainPath, path, wc)
				}
			}
		}
	}
}

// TestBroadcastUpsertRefusedOverTheWire: against a router-attached server an
// update request that upserts without pinning the shard key is refused and
// inserts nothing, with and without a write concern; one that pins it
// upserts once.
func TestBroadcastUpsertRefusedOverTheWire(t *testing.T) {
	routed := threeDeployments(t)[2]
	set := bson.D("$set", bson.D("seen", true))
	for _, wc := range []*bson.Doc{nil, bson.D("j", true)} {
		resp := routed.srv.Handle(&Request{Op: OpUpdate, DB: "db", Collection: "c",
			Filter: bson.D("name", "nobody"), Update: set, Upsert: true, WriteConcern: wc})
		if resp.OK || !strings.Contains(resp.Error, "shard key {k:hashed}") {
			t.Fatalf("broadcast upsert with writeConcern %v = %+v, want a refusal naming the shard key", wc, resp)
		}
		for _, s := range routed.executors {
			if n := s.Database("db").Collection("c").Count(); n != 0 {
				t.Fatalf("refused upsert left %d documents on %s", n, s.Name())
			}
		}
	}
	resp := routed.srv.Handle(&Request{Op: OpUpdate, DB: "db", Collection: "c",
		Filter: bson.D("k", 9, "name", "somebody"), Update: set, Upsert: true})
	if !resp.OK {
		t.Fatalf("targeted upsert: %s", resp.Error)
	}
	if n := routed.srv.Handle(&Request{Op: OpCount, DB: "db", Collection: "c"}).N; n != 1 {
		t.Fatalf("targeted upsert left %d documents, want 1", n)
	}
}

// watchIDs returns the documentKey _ids of a watch cursor's next n events,
// starting with those its last reply carried, and the resume token after
// them.
func watchIDs(t *testing.T, srv *Server, resp *Response, n int) ([]int64, string) {
	t.Helper()
	var ids []int64
	for {
		for _, ev := range resp.Docs {
			key, _ := ev.GetOr("documentKey", bson.D()).(*bson.Doc)
			id, _ := bson.AsInt(key.GetOr(bson.IDKey, nil))
			ids = append(ids, id)
		}
		if len(ids) >= n {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			return ids, resp.ResumeToken
		}
		cursorID := resp.CursorID
		resp = srv.Handle(&Request{Op: OpGetMore, DB: "db", CursorID: cursorID, MaxTimeMS: 5000})
		if !resp.OK {
			t.Fatalf("getMore on watch cursor %d: %s", cursorID, resp.Error)
		}
		if len(resp.Docs) == 0 {
			t.Fatalf("no event within 5s after %d of %d", len(ids), n)
		}
	}
}

// TestRoutedWatchAndResume: a router-attached server answers watch with the
// cluster's merged change stream (the shards are durable, the front server
// is not), so a getMore after an insert returns its events, and a watch
// resumed from a reply's composite token returns exactly what came after.
func TestRoutedWatchAndResume(t *testing.T) {
	routed := threeDeployments(t)[2].srv
	watch := func(resumeAfter string) *Response {
		t.Helper()
		resp := routed.Handle(&Request{Op: OpWatch, DB: "db", Collection: "c", ResumeAfter: resumeAfter})
		if !resp.OK || resp.CursorID == 0 {
			t.Fatalf("routed watch (resumeAfter %q): %+v", resumeAfter, resp)
		}
		return resp
	}
	insert := func(lo, hi int) {
		t.Helper()
		if resp := routed.Handle(&Request{Op: OpInsertMany, DB: "db", Collection: "c", Docs: items(lo, hi)}); !resp.OK {
			t.Fatalf("insertMany: %s", resp.Error)
		}
	}

	first := watch("")
	insert(0, 4)
	ids, token := watchIDs(t, routed, first, 4)
	if fmt.Sprint(ids) != "[0 1 2 3]" {
		t.Fatalf("routed watch delivered %v, want the four inserts", ids)
	}
	if kill := routed.Handle(&Request{Op: OpKillCursors, DB: "db", CursorID: first.CursorID}); kill.N != 1 {
		t.Fatalf("watch cursor %d could not be killed", first.CursorID)
	}
	insert(4, 6)
	if ids, _ = watchIDs(t, routed, watch(token), 2); fmt.Sprint(ids) != "[4 5]" {
		t.Fatalf("watch resumed from %q delivered %v, want only the two later inserts", token, ids)
	}
}

// TestRoutedStatsSumsShards: stats on a router-attached server reports what
// the shards hold, not the empty front server.
func TestRoutedStatsSumsShards(t *testing.T) {
	routed := threeDeployments(t)[2]
	for coll, docs := range map[string][]*bson.Doc{"c": items(0, 10), "other": items(10, 11)} {
		if resp := routed.srv.Handle(&Request{Op: OpInsertMany, DB: "db", Collection: coll, Docs: docs}); !resp.OK {
			t.Fatalf("insertMany into %s: %s", coll, resp.Error)
		}
	}
	resp := routed.srv.Handle(&Request{Op: OpStats, DB: "db"})
	if !resp.OK || len(resp.Docs) != 1 {
		t.Fatalf("routed stats: %+v", resp)
	}
	var dataSize, indexSize int64
	for _, s := range routed.executors {
		st := s.Status()
		dataSize += st.DataSizeBytes
		indexSize += st.IndexSizeBytes
	}
	stats := resp.Docs[0]
	for field, want := range map[string]int64{
		"databases": 1, "collections": 2, "documents": 11, "dataSizeBytes": dataSize, "indexSizeBytes": indexSize,
	} {
		if got, _ := bson.AsInt(stats.GetOr(field, nil)); got != want || want == 0 {
			t.Fatalf("routed stats %s = %d, want %d: %s", field, got, want, stats.ToJSON())
		}
	}
	engine, _ := stats.GetOr("engine", bson.D()).(*bson.Doc)
	if pages, _ := bson.AsInt(engine.GetOr("pages", nil)); pages < 2 {
		t.Fatalf("routed stats engine.pages = %d, want one page per shard collection at least", pages)
	}
}
