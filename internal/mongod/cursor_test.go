package mongod

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/trace"
)

func cursorTestDB(t *testing.T) *Database {
	t.Helper()
	db := NewServer(Options{}).Database("db")
	for i := 0; i < 400; i++ {
		doc := bson.D(
			bson.IDKey, i,
			"g", i%9,
			"v", i,
			"name", fmt.Sprintf("row-%04d", i),
		)
		if _, err := db.Insert("rows", doc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.EnsureIndex("rows", bson.D("g", 1), false); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDatabaseFindCursorMatchesFind checks the timed cursor entry point
// streams exactly what Find materializes.
func TestDatabaseFindCursorMatchesFind(t *testing.T) {
	db := cursorTestDB(t)
	filter := bson.D("g", bson.D("$in", bson.A(int64(1), int64(4))))
	want, err := db.Find("rows", filter, storage.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := db.FindCursor("rows", filter, storage.FindOptions{BatchSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor %d docs, find %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("doc %d differs", i)
		}
	}
}

// TestAggregateCursorMatchesAggregate checks the two execution strategies —
// slice Aggregate and streaming AggregateCursor — agree on pipelines with and
// without a pushed-down leading $match, including a $out whose side effect
// must land identically.
func TestAggregateCursorMatchesAggregate(t *testing.T) {
	pipelines := map[string][]*bson.Doc{
		"pushdown match": {
			bson.D("$match", bson.D("g", bson.D("$lt", 5))),
			bson.D("$group", bson.D(bson.IDKey, "$g", "n", bson.D("$sum", 1), "total", bson.D("$sum", "$v"))),
			bson.D("$sort", bson.D(bson.IDKey, 1)),
		},
		"no match": {
			bson.D("$project", bson.D("g", 1, "v", 1)),
			bson.D("$group", bson.D(bson.IDKey, "$g", "avg", bson.D("$avg", "$v"))),
			bson.D("$sort", bson.D("avg", -1)),
		},
		"with out": {
			bson.D("$match", bson.D("g", 3)),
			bson.D("$sort", bson.D("v", 1)),
			bson.D("$out", "result"),
		},
		"computed field grouped": {
			bson.D("$match", bson.D("g", bson.D("$gte", 6))),
			bson.D("$project", bson.D("g", 1, "double", bson.D("$multiply", bson.A("$v", 2)))),
			bson.D("$group", bson.D(bson.IDKey, "$g", "total", bson.D("$sum", "$double"), "n", bson.D("$sum", 1))),
			bson.D("$sort", bson.D(bson.IDKey, 1)),
		},
		"one group over everything": {
			bson.D("$project", bson.D("v", 1)),
			bson.D("$group", bson.D(bson.IDKey, nil, "total", bson.D("$sum", "$v"))),
		},
	}
	for name, stages := range pipelines {
		t.Run(name, func(t *testing.T) {
			// Fresh databases per strategy so $out side effects are isolated.
			sliceDB := cursorTestDB(t)
			cursorDB := cursorTestDB(t)

			want, err := sliceDB.Aggregate("rows", stages)
			if err != nil {
				t.Fatal(err)
			}
			it, err := cursorDB.AggregateCursor("rows", stages)
			if err != nil {
				t.Fatal(err)
			}
			got, err := aggregate.Drain(it)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("cursor produced %d docs, Aggregate produced %d", len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("cursor doc %d differs:\n got  %v\n want %v", i, got[i], want[i])
				}
			}

			// When the pipeline writes $out, both side-effect collections
			// must hold identical contents.
			if name == "with out" {
				a, err := sliceDB.Find("result", nil, storage.FindOptions{})
				if err != nil {
					t.Fatal(err)
				}
				b, err := cursorDB.Find("result", nil, storage.FindOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("$out wrote %d docs on slice path, %d on cursor path", len(a), len(b))
				}
				for i := range a {
					if !a[i].Equal(b[i]) {
						t.Fatalf("$out doc %d differs", i)
					}
				}
			}
		})
	}
}

// TestAggregateCursorErrorsMatchAggregate checks both entry points fail the
// same pipelines: one that does not compile fails to open, and an expression
// that fails on a streamed row surfaces through the iterator's Err.
func TestAggregateCursorErrorsMatchAggregate(t *testing.T) {
	db := cursorTestDB(t)
	if _, err := db.Aggregate("rows", []*bson.Doc{bson.D("$bogus", 1)}); err == nil {
		t.Fatal("Aggregate of an unknown stage succeeded")
	}
	if _, err := db.AggregateCursor("rows", []*bson.Doc{bson.D("$bogus", 1)}); err == nil {
		t.Fatal("AggregateCursor of an unknown stage opened")
	}

	divide := []*bson.Doc{
		bson.D("$match", bson.D("g", 1)),
		bson.D("$project", bson.D("x", bson.D("$divide", bson.A(1, 0)))),
		bson.D("$group", bson.D(bson.IDKey, nil, "n", bson.D("$sum", 1))),
	}
	_, want := db.Aggregate("rows", divide)
	if want == nil {
		t.Fatal("Aggregate divided by zero without an error")
	}
	it, err := db.AggregateCursor("rows", divide)
	if err != nil {
		t.Fatalf("AggregateCursor failed to open: %v", err)
	}
	if out, err := aggregate.Drain(it); err == nil || err.Error() != want.Error() {
		t.Fatalf("AggregateCursor drained %d documents, %v; want %v", len(out), err, want)
	}
}

// TestAggregateCursorStopsScanOnLimit checks the cursor path's laziness pays
// off end-to-end: a pipeline topped by $limit must not scan the whole
// collection.
func TestAggregateCursorStopsScanOnLimit(t *testing.T) {
	db := cursorTestDB(t)
	before := db.Collection("rows").Stats().CollScans
	it, err := db.AggregateCursor("rows", []*bson.Doc{
		bson.D("$limit", 5),
		bson.D("$project", bson.D("v", 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := aggregate.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 5 {
		t.Fatalf("got %d docs, want 5", len(docs))
	}
	if after := db.Collection("rows").Stats().CollScans; after != before+1 {
		t.Fatalf("expected exactly one collection scan, got %d", after-before)
	}
}

// TestFindCursorSnapshotAcrossDatabaseWrites pins the mongod-level MVCC
// contract: a cursor opened through the Database layer drains the at-open
// document set even as Database-level writes (insert, update, delete) land
// between its batches.
func TestFindCursorSnapshotAcrossDatabaseWrites(t *testing.T) {
	srv := NewServer(Options{})
	db := srv.Database("db")
	for i := 0; i < 90; i++ {
		if _, err := db.Insert("rows", bson.D(bson.IDKey, i, "v", i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := db.Find("rows", nil, storage.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cur, err := db.FindCursor("rows", nil, storage.FindOptions{BatchSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	var got []*bson.Doc
	for {
		b := cur.NextBatch()
		if len(b) == 0 {
			break
		}
		for _, d := range b {
			got = append(got, d.Clone())
		}
		if _, err := db.Insert("rows", bson.D(bson.IDKey, 1000+len(got))); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Update("rows", query.UpdateSpec{Query: bson.D(), Update: bson.D("$set", bson.D("v", -1)), Multi: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Delete("rows", bson.D(bson.IDKey, len(got)), false); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("cursor drained %d docs, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("doc %d differs from at-open state:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestFindReportsPlanFields checks the execution plan of streamed and
// materializing queries reaches their caller: access path summary, docs
// examined, and the snapshot version/isolation the scan pinned — on the
// cursor, on FindWithPlan's result, and on the mongod.find and storage.plan
// spans of a traced find.
func TestFindReportsPlanFields(t *testing.T) {
	srv := NewServer(Options{})
	db := srv.Database("db")
	for i := 0; i < 30; i++ {
		if _, err := db.Insert("rows", bson.D(bson.IDKey, i, "g", i%3)); err != nil {
			t.Fatal(err)
		}
	}

	cur, err := db.FindCursor("rows", bson.D("g", 1), storage.FindOptions{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur.All(); err != nil {
		t.Fatal(err)
	}
	streamed := cur.Plan()
	if streamed.DocsExamined != 30 {
		t.Fatalf("DocsExamined = %d, want 30", streamed.DocsExamined)
	}
	if streamed.SnapshotVersion <= 0 {
		t.Fatalf("SnapshotVersion = %d", streamed.SnapshotVersion)
	}
	if streamed.Isolation != storage.IsolationSnapshot {
		t.Fatalf("Isolation = %q", streamed.Isolation)
	}
	if !strings.Contains(streamed.String(), "COLLSCAN") {
		t.Fatalf("plan = %q", streamed.String())
	}

	// The slice path (FindWithPlan) returns the same fields and puts them on
	// its spans.
	if _, err := db.EnsureIndex("rows", bson.D("g", 1), false); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{SampleRate: 1})
	root := tr.StartSpan("test.find")
	_, plan, err := db.FindWithPlan("rows", bson.D("g", 1), storage.FindOptions{Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	root.Finish()
	if plan.SnapshotVersion < streamed.SnapshotVersion || plan.Isolation != storage.IsolationSnapshot ||
		!strings.Contains(plan.String(), "IXSCAN g_1 on rows keys=10 examined=10 ") {
		t.Fatalf("FindWithPlan plan = %+v (%s)", plan, plan.String())
	}
	views := tr.Traces(1)
	if len(views) != 1 {
		t.Fatalf("retained %d traces, want 1", len(views))
	}
	find := views[0].Find("mongod.find")
	if find == nil {
		t.Fatal("mongod.find span missing")
	}
	for key, want := range map[string]any{"db": "db", "collection": "rows", "keysExamined": plan.KeysExamined, "docsExamined": plan.DocsExamined} {
		if got, _ := find.Attr(key); got != want {
			t.Fatalf("mongod.find %s = %v, want %v; attrs = %v", key, got, want, find.Attrs)
		}
	}
	planSpan := views[0].Find("storage.plan")
	if planSpan == nil {
		t.Fatal("storage.plan span missing")
	}
	for key, want := range map[string]any{"index": plan.IndexUsed, "keysExamined": plan.KeysExamined, "snapshotVersion": plan.SnapshotVersion} {
		if got, _ := planSpan.Attr(key); got != want {
			t.Fatalf("storage.plan %s = %v, want %v; attrs = %v", key, got, want, planSpan.Attrs)
		}
	}
}

// TestDatabaseFindHintUnknownIndex checks the storage engine's unknown-hint
// error surfaces unchanged through the Database entry points.
func TestDatabaseFindHintUnknownIndex(t *testing.T) {
	db := NewServer(Options{}).Database("db")
	if _, err := db.Insert("rows", bson.D(bson.IDKey, 1, "g", 1)); err != nil {
		t.Fatal(err)
	}
	var unknown *storage.ErrUnknownIndex
	if _, err := db.Find("rows", bson.D("g", 1), storage.FindOptions{Hint: "nope_1"}); !errors.As(err, &unknown) {
		t.Fatalf("Find: %v", err)
	}
	if _, err := db.FindCursor("rows", bson.D("g", 1), storage.FindOptions{Hint: "nope_1"}); !errors.As(err, &unknown) {
		t.Fatalf("FindCursor: %v", err)
	}
	if unknown.Hint != "nope_1" || unknown.Collection != "rows" {
		t.Fatalf("error fields: %+v", unknown)
	}
}
