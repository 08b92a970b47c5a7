package wire

import (
	"os"
	"strings"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/mongod"
)

// chain returns a value of the given number of levels: documents one inside
// the other, a string at the bottom.
func chain(levels int) *bson.Doc {
	d := bson.D("leaf", "x")
	for i := 1; i < levels; i++ {
		d = bson.D("a", d)
	}
	return d
}

// TestDocumentDepthLimitOverTheWire writes, over a socket and against a
// durable server with a change stream open, the deepest documents the store
// takes — as an insert, as the update of an update and of a bulkWrite — and
// ones a level or more past that, among them a shallow update whose dotted
// path builds a deep document. What was accepted must come back in a find
// and in the stream's events, and the directory must recover, from the log
// alone and from a checkpoint: every wrapper the program puts around a
// document is inside bson.MaxDepth - bson.MaxDocumentDepth. What was refused
// must have left the documents, the log and the connection as they were.
func TestDocumentDepthLimitOverTheWire(t *testing.T) {
	dir := t.TempDir()
	backend := mongod.NewServer(mongod.Options{Name: "docstored"})
	if _, err := backend.EnableDurability(mongod.Durability{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	defer backend.CloseDurability()
	srv := NewServer(backend)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events, err := c.Watch("db", "c", nil, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer events.Close()

	const max = bson.MaxDocumentDepth
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "nests more than") {
			t.Fatalf("%s: %v, want the storage engine's depth error", what, err)
		}
	}
	deepest := bson.D(bson.IDKey, 1, "v", chain(max-1))
	if !bson.NestsWithin(deepest, max) || bson.NestsWithin(deepest, max-1) {
		t.Fatalf("the test's deepest document does not have %d levels", max)
	}

	// Inserts: at the limit, and one level past it.
	if err := c.Insert("db", "c", deepest); err != nil {
		t.Fatalf("insert of %d levels: %v", max, err)
	}
	refused("insert one level too deep", c.Insert("db", "c", bson.D(bson.IDKey, "deep", "v", chain(max))))
	_, err = c.InsertMany("db", "c", []*bson.Doc{bson.D(bson.IDKey, "beside"), bson.D(bson.IDKey, "deep", "v", chain(max))})
	refused("insertMany with one document too deep", err)

	// Updates. A $set of the deepest value a document can hold is itself an
	// update document of max levels; it goes through update and bulkWrite.
	for _, id := range []int{2, 3, 4} {
		if err := c.Insert("db", "c", bson.D(bson.IDKey, id)); err != nil {
			t.Fatal(err)
		}
	}
	set := bson.D("$set", bson.D("v", chain(max-2)))
	if n, err := c.Update("db", "c", bson.D(bson.IDKey, 2), set, false, false); err != nil || n != 1 {
		t.Fatalf("update of %d levels: n=%d, %v", max, n, err)
	}
	if res, err := c.BulkWrite("db", "c", []*bson.Doc{BulkUpdateOp(bson.D(bson.IDKey, 3), set, false, false)}, true); err != nil || res.Modified != 1 {
		t.Fatalf("bulkWrite update of %d levels: %+v, %v", max, res, err)
	}
	// The update that needs no deep request: a 31-step dotted path over an
	// 80-level value builds 112 levels.
	_, err = c.Update("db", "c", bson.D(bson.IDKey, 4), bson.D("$set", bson.D(strings.Repeat("a.", 30)+"a", chain(80))), false, false)
	refused("dotted $set building a document too deep", err)
	_, err = c.Update("db", "c", bson.D(bson.IDKey, "new"), bson.D("$set", bson.D(strings.Repeat("a.", 30)+"a", chain(80))), false, true)
	refused("upsert building a document too deep", err)
	_, err = c.Delete("db", "c", bson.D("v", chain(max)), true)
	refused("delete with a filter too deep", err)

	// The connection is still there, and finds return what was accepted.
	want := map[any]*bson.Doc{
		int64(1): deepest,
		int64(2): bson.D(bson.IDKey, 2, "v", chain(max-2)),
		int64(3): bson.D(bson.IDKey, 3, "v", chain(max-2)),
		int64(4): bson.D(bson.IDKey, 4),
	}
	check := func(where string, find func(id any) *bson.Doc, count int) {
		t.Helper()
		if count != len(want) {
			t.Fatalf("%s: %d documents, want %d", where, count, len(want))
		}
		for id, doc := range want {
			if got := find(id); !doc.Equal(got) {
				t.Fatalf("%s: document %v differs from what was written", where, id)
			}
		}
	}
	all, err := c.Find("db", "c", nil, nil, 0)
	if err != nil {
		t.Fatalf("find: %v", err)
	}
	check("find over the wire", func(id any) *bson.Doc {
		for _, d := range all {
			if got, _ := d.Get(bson.IDKey); got == id {
				return d
			}
		}
		return nil
	}, len(all))

	// The stream saw six writes, each event decoded by the client: the
	// insert's fullDocument and the update's description nest deepest.
	for i, op := range []string{"insert", "insert", "insert", "insert", "update", "update"} {
		ev, err := events.Next(5 * time.Second)
		if err != nil || ev == nil {
			t.Fatalf("event %d: %v, %v", i, ev, err)
		}
		if got, _ := ev.Get("operationType"); got != op {
			t.Fatalf("event %d is a %v, want %s", i, got, op)
		}
	}

	// Recovery of a copy of the directory, from the log alone and then from
	// a checkpoint of it.
	recover := func(from string) {
		t.Helper()
		copied := t.TempDir()
		if err := os.CopyFS(copied, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		again := mongod.NewServer(mongod.Options{Name: "recovered"})
		if _, err := again.EnableDurability(mongod.Durability{Dir: copied}); err != nil {
			t.Fatalf("recovery from %s: %v", from, err)
		}
		defer again.CloseDurability()
		coll := again.Database("db").Collection("c")
		check("recovered from "+from, func(id any) *bson.Doc { return coll.FindID(id) }, coll.Count())
	}
	recover("the log")
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	recover("a checkpoint")
}

// TestAggregateErrorsKeepTheConnection: two ways an aggregation is refused,
// over a socket to each of the three deployments. A pipeline that is wrong
// whatever the collection holds — here an unknown operator in a branch no
// document would reach — is answered with Parse's error, stage index
// included, even on an empty collection. And a pipeline that wraps a stored
// document of 90 levels ten levels deeper, in a $project (the shard's half of
// a routed pipeline) or in a $group key (the router's), is answered with the
// storage engine's depth error instead of a reply the client could not
// decode. Either way the connection answers the next request.
func TestAggregateErrorsKeepTheConnection(t *testing.T) {
	wrapped := func(levels int) any {
		var v any = "$v"
		for i := 0; i < levels; i++ {
			v = bson.D("a", v)
		}
		return v
	}
	for _, d := range threeDeployments(t) {
		addr, err := d.srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		static := []*bson.Doc{
			bson.D("$match", bson.D("k", bson.D("$gte", 0))),
			bson.D("$project", bson.D("x", bson.D("$cond", bson.A(true, "$k", bson.D("$subtract", bson.A("$k", 1, 2)))))),
		}
		if _, err := c.Aggregate("db", "empty", static); err == nil || !strings.Contains(err.Error(), "stage 1") || !strings.Contains(err.Error(), "$subtract") {
			t.Fatalf("%s: a statically wrong pipeline over an empty collection: %v, want Parse's error naming stage 1", d.name, err)
		}
		if _, err := c.AggregateCursor("db", "empty", static, 5); err == nil || !strings.Contains(err.Error(), "stage 1") {
			t.Fatalf("%s: the same through a cursor: %v", d.name, err)
		}

		if err := c.Insert("db", "c", bson.D(bson.IDKey, 1, "k", 1, "v", chain(89))); err != nil {
			t.Fatalf("%s: insert of 90 levels: %v", d.name, err)
		}
		for name, stage := range map[string]*bson.Doc{
			"$project": bson.D("$project", bson.D("w", wrapped(10))),
			"$group":   bson.D("$group", bson.D(bson.IDKey, wrapped(10))),
		} {
			if _, err := c.Aggregate("db", "c", []*bson.Doc{stage}); err == nil || !strings.Contains(err.Error(), "nests more than") {
				t.Fatalf("%s: %s ten levels deeper: %v, want the storage engine's depth error", d.name, name, err)
			}
			cur, err := c.AggregateCursor("db", "c", []*bson.Doc{stage}, 5)
			if err == nil {
				_, err = cur.All()
			}
			if err == nil || !strings.Contains(err.Error(), "nests more than") {
				t.Fatalf("%s: %s ten levels deeper through a cursor: %v", d.name, name, err)
			}
		}
		out, err := c.Aggregate("db", "c", []*bson.Doc{bson.D("$project", bson.D("w", wrapped(2)))})
		if err != nil || len(out) != 1 || !bson.NestsWithin(out[0], bson.MaxDocumentDepth) {
			t.Fatalf("%s: the same connection, a result at the limit: %d documents, %v", d.name, len(out), err)
		}
	}
}
