package mongod

import (
	"errors"
	"strings"
	"testing"

	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/storage"
)

// nest returns inner wrapped in levels documents: {a: {a: … inner}}.
func nest(inner any, levels int) any {
	for i := 0; i < levels; i++ {
		inner = bson.D("a", inner)
	}
	return inner
}

// TestAggregateResultDepth: a pipeline can build, from documents the store
// accepted, a result deeper than a reply may carry. A stored document of 90
// levels wrapped ten levels deeper by $project (or by a $group key) fails the
// aggregation with the error a write of that document gets — for the slice,
// the cursor and the parallel entry points, and for $out before the target
// is emptied — and one wrapped up to the limit passes.
func TestAggregateResultDepth(t *testing.T) {
	db := NewServer(Options{}).Database("db")
	stored := bson.D(bson.IDKey, 1, "v", nest("leaf", 89)) // 90 levels, itself included
	if !bson.NestsWithin(stored, 90) || bson.NestsWithin(stored, 89) {
		t.Fatal("the stored document does not have 90 levels")
	}
	if _, err := db.InsertMany("c", []*bson.Doc{stored, bson.D(bson.IDKey, 2, "v", "shallow")}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("kept", bson.D(bson.IDKey, "before")); err != nil {
		t.Fatal(err)
	}
	wrap := func(levels int) *bson.Doc {
		// The result is {_id, w: levels documents around $v}: itself, the
		// wrappers and v's own 89 levels.
		return bson.D("$project", bson.D("w", nest("$v", levels)))
	}
	atLimit := bson.MaxDocumentDepth - 90
	if out, err := db.Aggregate("c", []*bson.Doc{wrap(atLimit)}); err != nil || len(out) != 2 || !bson.NestsWithin(out[0], bson.MaxDocumentDepth) {
		t.Fatalf("a result of exactly %d levels: %d documents, %v", bson.MaxDocumentDepth, len(out), err)
	}

	tooDeep := map[string][]*bson.Doc{
		"$project":        {wrap(10)},
		"$project, $sort": {wrap(10), bson.D("$sort", bson.D(bson.IDKey, 1))},
		"$group":          {bson.D("$group", bson.D(bson.IDKey, nest("$v", 10)))},
		"after a $match":  {bson.D("$match", bson.D(bson.IDKey, 1)), wrap(atLimit + 1)},
	}
	for name, stages := range tooDeep {
		if out, err := db.Aggregate("c", stages); !errors.Is(err, storage.ErrDocumentTooDeep) || out != nil {
			t.Errorf("%s: Aggregate = %d documents, %v; want storage.ErrDocumentTooDeep", name, len(out), err)
		}
		it, err := db.AggregateCursor("c", stages)
		if err != nil {
			t.Fatalf("%s: AggregateCursor: %v", name, err)
		}
		if out, err := aggregate.Drain(it); !errors.Is(err, storage.ErrDocumentTooDeep) {
			t.Errorf("%s: AggregateCursor drained %d documents, %v; want storage.ErrDocumentTooDeep", name, len(out), err)
		}
		if _, err := db.AggregateParallel("c", stages, 2); !errors.Is(err, storage.ErrDocumentTooDeep) {
			t.Errorf("%s: AggregateParallel = %v; want storage.ErrDocumentTooDeep", name, err)
		}
		if _, err := db.Aggregate("c", append(stages[:len(stages):len(stages)], bson.D("$out", "kept"))); !errors.Is(err, storage.ErrDocumentTooDeep) {
			t.Errorf("%s into $out = %v; want storage.ErrDocumentTooDeep", name, err)
		}
		if kept, _ := db.Find("kept", nil, storage.FindOptions{}); len(kept) != 1 || kept[0].ID() != "before" {
			t.Fatalf("%s: a refused $out left %v in its target", name, kept)
		}
	}
	// Only what leaves is measured: a deep intermediate row that a later
	// stage flattens again is no error.
	flat := []*bson.Doc{wrap(10), bson.D("$project", bson.D("deep", bson.D("$literal", true)))}
	if out, err := db.Aggregate("c", flat); err != nil || len(out) != 2 {
		t.Fatalf("a deep intermediate row: %d documents, %v", len(out), err)
	}
	if !strings.Contains(storage.ErrDocumentTooDeep.Error(), "nests more than") {
		t.Fatal("the wire test matches the error by this text")
	}
}

// TestPlanSummaryOnlyForKeptEntries: an entry the profile ring keeps carries
// its plan summary, rendered after the slow-op threshold decided to keep it;
// a find below the threshold leaves no entry and so renders nothing, and is
// still counted in its histogram.
func TestPlanSummaryOnlyForKeptEntries(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		kept int
	}{
		{"every op kept", Options{}, 1},
		{"under the threshold", Options{SlowOpThreshold: 1 << 40}, 0},
	} {
		s := NewServer(c.opts)
		db := s.Database("db")
		if _, err := db.InsertMany("c", []*bson.Doc{bson.D(bson.IDKey, 1, "k", 1), bson.D(bson.IDKey, 2, "k", 2)}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.EnsureIndex("c", bson.D("k", 1), false); err != nil {
			t.Fatal(err)
		}
		s.ResetProfile()
		_, plan, err := db.FindWithPlan("c", bson.D("k", 2), storage.FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var finds []ProfileEntry
		for _, e := range s.Profile() {
			if e.Op == "find" {
				finds = append(finds, e)
			}
		}
		if len(finds) != c.kept {
			t.Fatalf("%s: %d find entries, want %d", c.name, len(finds), c.kept)
		}
		for _, e := range finds {
			if e.PlanSummary != plan.String() || !strings.Contains(e.PlanSummary, "k_1 on c keys=1 ") ||
				e.DocsExamined != plan.DocsExamined || e.KeysExamined != 1 {
				t.Fatalf("%s: entry %+v does not carry the plan %q", c.name, e, plan.String())
			}
		}
	}
}
