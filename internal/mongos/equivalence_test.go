package mongos

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/sharding"
	"docstore/internal/storage"
)

// TestBroadcastUpsertRefused: an upsert whose filter does not resolve to one
// shard used to be forwarded to every shard the visit reached, and each one
// that matched nothing inserted — three documents behind one UpsertedID. It
// is refused now, naming the shard key, through the scalar entry point and
// through a one-op batch in either mode; targeted and unsharded upserts are
// unchanged.
func TestBroadcastUpsertRefused(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "people", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	stored := func() int {
		total := 0
		for _, n := range shardCounts(r, "db", "people") {
			total += n
		}
		return total
	}
	spec := query.UpdateSpec{Query: bson.D("name", "nobody"), Update: bson.D("$set", bson.D("seen", true)), Upsert: true}
	refused := func(via string, err error) {
		t.Helper()
		if n := stored(); n != 0 {
			t.Fatalf("%s: broadcast upsert left %d documents, want 0", via, n)
		}
		if err == nil || !strings.Contains(err.Error(), "shard key {k:hashed}") {
			t.Fatalf("%s: broadcast upsert returned %v, want a refusal naming the shard key", via, err)
		}
	}

	res, err := r.Update("db", "people", spec)
	refused("Router.Update", err)
	if res.UpsertedID != nil {
		t.Fatalf("Router.Update: refused upsert reported id %v", res.UpsertedID)
	}
	for _, ordered := range []bool{true, false} {
		bulk := r.BulkWrite("db", "people", []storage.WriteOp{storage.UpdateWriteOp(spec)}, storage.BulkOptions{Ordered: ordered})
		if bulk.Upserted != 0 || bulk.Attempted != 1 || len(bulk.Errors) != 1 || bulk.Errors[0].Index != 0 {
			t.Fatalf("BulkWrite(ordered=%v): %+v", ordered, bulk)
		}
		refused(fmt.Sprintf("BulkWrite(ordered=%v)", ordered), bulk.FirstError())
	}

	// A filter that pins the shard key resolves to one shard and inserts once.
	spec.Query = bson.D("k", 7, "name", "somebody")
	if res, err = r.Update("db", "people", spec); err != nil || res.UpsertedID == nil {
		t.Fatalf("targeted upsert = %+v, %v", res, err)
	}
	if n := stored(); n != 1 {
		t.Fatalf("targeted upsert left %d documents, want 1", n)
	}
	// An unsharded collection lives on the primary shard: any filter upserts.
	spec.Query = bson.D("name", "nobody")
	if res, err = r.Update("db", "plain", spec); err != nil || res.UpsertedID == nil {
		t.Fatalf("unsharded upsert = %+v, %v", res, err)
	}
	if counts := shardCounts(r, "db", "plain"); counts["Shard1"] != 1 || counts["Shard2"]+counts["Shard3"] != 0 {
		t.Fatalf("unsharded upsert landed as %v", counts)
	}
}

// streamOp is one write of the equivalence stream. Its documents are cloned
// per run, because an insert stores the document it is handed.
type streamOp struct{ op storage.WriteOp }

func (s streamOp) writeOp() storage.WriteOp {
	op := s.op
	if op.Doc != nil {
		op.Doc = op.Doc.Clone()
	}
	return op
}

// writeStream draws n writes over documents {_id, k, u, g, v} with _id = k =
// u: inserts (some duplicate), upserts and updates that pin the shard key k,
// broadcast updates and deletes on g (multi) and on the unique u (non-multi),
// and multi updates over a range of k. A non-multi op never has two
// candidates, so which document it lands on does not depend on shard order; no
// update can fail on one document and not another; and no upsert leaves out
// the shard key (TestBroadcastUpsertRefused has that case). Within those
// limits a cluster and a single server must agree on every result.
func writeStream(rng *rand.Rand, n int) []streamOp {
	ops := make([]streamOp, 0, n)
	next := 0
	pick := func() int { return rng.Intn(next + 1) }
	inc := bson.D("$inc", bson.D("v", 1))
	for len(ops) < n {
		var op storage.WriteOp
		switch p := rng.Intn(100); {
		case p < 35:
			op = storage.InsertWriteOp(bson.D(bson.IDKey, next, "k", next, "u", next, "g", next%5, "v", 0))
			next++
		case p < 40: // usually a duplicate _id, on the shard that holds it
			id := pick()
			op = storage.InsertWriteOp(bson.D(bson.IDKey, id, "k", id, "u", id, "g", id%5, "v", 0))
		case p < 55:
			op = storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("k", pick()), Update: inc})
		case p < 60:
			id := pick() + rng.Intn(3)
			op = storage.UpdateWriteOp(query.UpdateSpec{
				Query:  bson.D(bson.IDKey, id, "k", id),
				Update: bson.D("$set", bson.D("u", id, "g", id%5), "$inc", bson.D("v", 1)),
				Upsert: true,
			})
			if id >= next {
				next = id + 1
			}
		case p < 70:
			op = storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("g", rng.Intn(5)), Update: inc, Multi: true})
		case p < 77:
			op = storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("u", pick()), Update: bson.D("$set", bson.D("tag", len(ops)))})
		case p < 85:
			lo := pick()
			op = storage.UpdateWriteOp(query.UpdateSpec{
				Query: bson.D("k", bson.D("$gte", lo, "$lt", lo+rng.Intn(20))), Update: inc, Multi: true,
			})
		case p < 90:
			op = storage.DeleteWriteOp(bson.D("k", pick()), false)
		case p < 95:
			op = storage.DeleteWriteOp(bson.D("u", pick()), false)
		default:
			op = storage.DeleteWriteOp(bson.D("g", rng.Intn(5), "v", bson.D("$gte", 3)), true)
		}
		ops = append(ops, streamOp{op})
	}
	return ops
}

// outcome is what a caller can observe of one write, whichever entry point
// issued it.
type outcome struct {
	Matched, Modified, Deleted int
	ID                         any // the inserted or upserted _id
	Failed                     bool
}

func bulkOutcome(res storage.BulkResult) outcome {
	o := outcome{Matched: res.Matched, Modified: res.Modified, Deleted: res.Deleted, Failed: res.FirstError() != nil}
	for _, id := range append(res.CompactInsertedIDs(), res.UpsertedIDs...) {
		if id != nil {
			o.ID = id
		}
	}
	return o
}

// scalarWrites is the scalar write surface the router and a server's
// database share once the database name is bound.
type scalarWrites interface {
	Insert(coll string, doc *bson.Doc) (any, error)
	Update(coll string, spec query.UpdateSpec) (storage.UpdateResult, error)
	Delete(coll string, filter *bson.Doc, multi bool) (int, error)
}

type routerDB struct{ r *Router }

func (d routerDB) Insert(coll string, doc *bson.Doc) (any, error) { return d.r.Insert("db", coll, doc) }
func (d routerDB) Update(coll string, spec query.UpdateSpec) (storage.UpdateResult, error) {
	return d.r.Update("db", coll, spec)
}
func (d routerDB) Delete(coll string, filter *bson.Doc, multi bool) (int, error) {
	return d.r.Delete("db", coll, filter, multi)
}

func scalarOutcome(w scalarWrites, op storage.WriteOp) outcome {
	var o outcome
	var err error
	switch op.Kind {
	case storage.InsertOp:
		o.ID, err = w.Insert("c", op.Doc)
	case storage.UpdateOp:
		var ur storage.UpdateResult
		ur, err = w.Update("c", op.Update)
		o.Matched, o.Modified, o.ID = ur.Matched, ur.Modified, ur.UpsertedID
	case storage.DeleteOp:
		o.Deleted, err = w.Delete("c", op.Filter, op.Multi)
	}
	o.Failed = err != nil
	return o
}

func contents(t *testing.T, find func() ([]*bson.Doc, error)) string {
	t.Helper()
	docs, err := find()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range docs {
		b.WriteString(d.ToJSON())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRouterWriteEquivalence is the one oracle for the router's write path:
// a seeded stream replayed on a stand-alone mongod.Database gives the expected
// result of every op and the expected final collection, and the same stream
// through the router's scalar entry points, and as one-op BulkWrites — ordered
// and unordered, with {j: true}, with a majority write concern — must match
// both, over a hashed and a range shard key, on plain and on replica-backed
// shards.
func TestRouterWriteEquivalence(t *testing.T) {
	byID := storage.FindOptions{Sort: []query.SortField{{Field: bson.IDKey}}}
	routes := []struct {
		name string
		opts *storage.BulkOptions // nil: the scalar entry points
	}{
		{"scalar", nil},
		{"bulk-ordered", &storage.BulkOptions{Ordered: true}},
		{"bulk-unordered", &storage.BulkOptions{}},
		{"bulk-journaled", &storage.BulkOptions{Ordered: true, Journaled: true}},
		{"bulk-majority", &storage.BulkOptions{Ordered: true, WriteConcern: storage.WriteConcern{Majority: true}}},
	}
	for seed := int64(1); seed <= 2; seed++ {
		stream := writeStream(rand.New(rand.NewSource(seed)), 400)

		alone := mongod.NewServer(mongod.Options{Name: "alone"}).Database("db")
		want := make([]outcome, len(stream))
		for i, s := range stream {
			want[i] = scalarOutcome(alone, s.writeOp())
		}
		wantDocs := contents(t, func() ([]*bson.Doc, error) { return alone.Find("c", nil, byID) })

		for _, key := range []*bson.Doc{bson.D("k", "hashed"), bson.D("k", 1)} {
			for _, replicated := range []bool{false, true} {
				for _, route := range routes {
					name := fmt.Sprintf("seed%d/%s/replicated=%v/%s", seed, key.ToJSON(), replicated, route.name)
					t.Run(name, func(t *testing.T) {
						r := newTestRouter(t, Options{})
						if replicated {
							r = NewRouter(sharding.NewConfigServer(), Options{})
							for _, shard := range []string{"Shard1", "Shard2", "Shard3"} {
								r.AddReplicaShard(shard, newReplicaShard(t, shard, shard+"-sec"))
							}
						}
						// A small chunk size, so the range key splits as it fills.
						if _, err := r.EnableSharding("db", "c", key, 2048); err != nil {
							t.Fatal(err)
						}
						for i, s := range stream {
							var got outcome
							if route.opts == nil {
								got = scalarOutcome(routerDB{r}, s.writeOp())
							} else {
								got = bulkOutcome(r.BulkWrite("db", "c", []storage.WriteOp{s.writeOp()}, *route.opts))
							}
							if fmt.Sprint(got) != fmt.Sprint(want[i]) {
								t.Fatalf("op %d (%s %+v): got %+v, stand-alone %+v", i, s.op.Kind, s.op, got, want[i])
							}
						}
						gotDocs := contents(t, func() ([]*bson.Doc, error) { return r.Find("db", "c", nil, byID) })
						if gotDocs != wantDocs {
							t.Fatalf("final contents differ from the stand-alone replay:\n%s\nwant:\n%s", gotDocs, wantDocs)
						}
					})
				}
			}
		}
	}
}
