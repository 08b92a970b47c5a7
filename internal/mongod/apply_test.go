package mongod

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// TestApplyAgreesWithRecovery: recovery and a replica-set member turn the
// same log into the same server. One seeded log holds every record kind —
// ordered and unordered batches whose ops fail part-way, an upsert carrying
// the _id it drew, a legacy wipe then a batch, a replace and an empty
// replace, an index build whose unique backfill fails, an index drop, a
// collection drop, and a database drop followed by its recreation. One
// fresh server recovers from the log; another is handed each record through
// Apply. The two must hold byte-identical documents in the same order and
// the same index definitions in every collection; Apply must refuse only the
// failing index build, and an unknown record kind.
func TestApplyAgreesWithRecovery(t *testing.T) {
	upsertID := bson.NewObjectID()
	replaced := []*bson.Doc{bson.D(bson.IDKey, 1, "v", "a"), bson.D(bson.IDKey, 2, "v", "b")}
	insert := func(db, coll string, ordered bool, docs ...*bson.Doc) *wal.Record {
		return &wal.Record{Kind: wal.KindBatch, DB: db, Coll: coll, Ordered: ordered, Ops: storage.InsertOps(docs)}
	}
	index := func(db, coll, field string, unique bool) *wal.Record {
		return &wal.Record{Kind: wal.KindEnsureIndex, DB: db, Coll: coll, Spec: bson.D(field, 1), Unique: unique}
	}
	log := []*wal.Record{
		index("db", "c", "u", true),
		index("db", "c", "g", false),
		insert("db", "c", true,
			bson.D(bson.IDKey, 1, "u", 1, "g", 0, "k", 1),
			bson.D(bson.IDKey, 2, "u", 2, "g", 1, "k", 1)),
		// Ordered: stops at the duplicate _id, so _id 4 is never inserted.
		insert("db", "c", true,
			bson.D(bson.IDKey, 3, "u", 3, "g", 0, "k", 2),
			bson.D(bson.IDKey, 1, "u", 10),
			bson.D(bson.IDKey, 4, "u", 4)),
		// Unordered: the duplicate _id and the unique-u clash fail alone.
		insert("db", "c", false,
			bson.D(bson.IDKey, 5, "u", 5, "g", 1),
			bson.D(bson.IDKey, 2, "u", 20),
			bson.D(bson.IDKey, 6, "u", 1),
			bson.D(bson.IDKey, 7, "u", 7, "g", 0)),
		{Kind: wal.KindBatch, DB: "db", Coll: "c", Ordered: true, Ops: []storage.WriteOp{
			{Kind: storage.UpdateOp, Update: query.UpdateSpec{
				Query: bson.D("u", 99), Update: bson.D("$set", bson.D("g", 2)), Upsert: true,
			}, UpsertID: upsertID},
			storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("g", 0), Update: bson.D("$inc", bson.D("k", 1)), Multi: true}),
			storage.DeleteWriteOp(bson.D(bson.IDKey, 5), false),
		}},
		// k repeats, so the unique backfill fails and no k_1 is built.
		index("db", "c", "k", true),
		{Kind: wal.KindDropIndex, DB: "db", Coll: "c", Index: "g_1"},

		// A log written before $out journaled one record: a wipe, which
		// also drops the user index, then the result's batch.
		insert("db", "out", true, bson.D(bson.IDKey, "old", "v", 1)),
		index("db", "out", "v", false),
		{Kind: wal.KindClear, DB: "db", Coll: "out"},
		insert("db", "out", true, bson.D(bson.IDKey, "new", "v", 2)),

		insert("db", "rep", true, bson.D(bson.IDKey, "gone")),
		{Kind: wal.KindReplace, DB: "db", Coll: "rep", Ops: storage.InsertOps(replaced)},
		insert("db", "empty", true, bson.D(bson.IDKey, "gone")),
		{Kind: wal.KindReplace, DB: "db", Coll: "empty"},

		insert("db", "dropped", true, bson.D(bson.IDKey, 1)),
		{Kind: wal.KindDropCollection, DB: "db", Coll: "dropped"},

		insert("tmp", "a", true, bson.D(bson.IDKey, "before", "v", 1)),
		index("tmp", "a", "v", false),
		{Kind: wal.KindDropDatabase, DB: "tmp"},
		insert("tmp", "a", true, bson.D(bson.IDKey, "after")),
	}
	const failingIndex = 6 // log[6]: the unique k backfill

	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range log {
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	records, err := wal.ReadAll(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(log) {
		t.Fatalf("read %d records back, wrote %d", len(records), len(log))
	}

	recovered, stats := durableServer(t, dir, wal.SyncNone)
	defer recovered.CloseDurability()
	if stats.RecordsReplayed != len(log) {
		t.Fatalf("recovery replayed %d records, want %d", stats.RecordsReplayed, len(log))
	}
	applied := NewServer(Options{Name: "member"})
	for i, rec := range records {
		err := applied.Apply(rec)
		if (err != nil) != (i == failingIndex) {
			t.Fatalf("Apply of record %d (%s) = %v", i, rec.Kind, err)
		}
	}
	if err := applied.Apply(&wal.Record{Kind: wal.RecordKind(99), DB: "db", Coll: "c"}); err == nil {
		t.Fatal("Apply accepted an unknown record kind")
	}

	want := serverContents(t, recovered)
	got := serverContents(t, applied)
	if len(got) != len(want) {
		t.Fatalf("Apply built %d collections, recovery %d", len(got), len(want))
	}
	for ns, w := range want {
		g, ok := got[ns]
		if !ok {
			t.Fatalf("Apply did not build %s", ns)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: Apply holds %d entries, recovery %d\n got: %q\nwant: %q", ns, len(g), len(w), g, w)
		}
		for i := range w {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("%s: entry %d differs\n got: %q\nwant: %q", ns, i, g[i], w[i])
			}
		}
	}

	// Spot checks that the log did what it says, on the applied server.
	c := applied.Database("db").Collection("c")
	if c.FindID(int64(4)) != nil || c.FindID(int64(6)) != nil || c.FindID(int64(5)) != nil || c.FindID(upsertID) == nil {
		t.Fatalf("db.c holds %d documents, not the ones the batches leave", c.Count())
	}
	if names := indexNames(c); names != "u_1" {
		t.Fatalf("db.c has indexes %q, want u_1 alone", names)
	}
	out := applied.Database("db").Collection("out")
	if out.Count() != 1 || out.FindID("new") == nil || indexNames(out) != "" {
		t.Fatalf("db.out holds %d documents and indexes %q after the wipe and the batch", out.Count(), indexNames(out))
	}
	// A member stores the replace record's own documents, uncopied.
	rep := applied.Database("db").Collection("rep")
	docs := records[13].Docs() // log[13]: the replace of db.rep
	if rep.Count() != 2 || rep.FindID(int64(1)) != docs[0] || rep.FindID(int64(2)) != docs[1] {
		t.Fatalf("db.rep holds %d documents, not the replace record's own", rep.Count())
	}
	if n := applied.Database("db").Collection("empty").Count(); n != 0 {
		t.Fatalf("an empty replace left %d documents", n)
	}
	if applied.Database("db").HasCollection("dropped") {
		t.Fatal("the dropped collection is back")
	}
	a := applied.Database("tmp").Collection("a")
	if a.Count() != 1 || a.FindID("after") == nil || indexNames(a) != "" {
		t.Fatalf("tmp.a holds %d documents and indexes %q after the drop and the recreate", a.Count(), indexNames(a))
	}
}

// serverContents renders, per collection, each document's encoding in scan
// order and each user index's definition.
func serverContents(t *testing.T, s *Server) map[string][][]byte {
	t.Helper()
	out := make(map[string][][]byte)
	for _, dbName := range s.DatabaseNames() {
		for _, coll := range s.Database(dbName).Collections() {
			var entries [][]byte
			coll.Scan(func(d *bson.Doc) bool {
				entries = append(entries, bson.Marshal(d))
				return true
			})
			for _, ix := range coll.Indexes() {
				entries = append(entries, fmt.Appendf(nil, "index %s %s unique=%v", ix.Name(), ix.Spec().Doc().ToJSON(), ix.Unique()))
			}
			out[dbName+"."+coll.Name()] = entries
		}
	}
	return out
}

func indexNames(c *storage.Collection) string {
	var names []string
	for _, ix := range c.Indexes() {
		names = append(names, ix.Name())
	}
	return strings.Join(names, ",")
}
