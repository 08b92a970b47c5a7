package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/index"
	"docstore/internal/query"
)

// planCollection holds n documents {_id: i, u: i, a: i%20, b: i%7, c: i%3,
// n: i%11} with a unique index on u and plain ones on a, b and c; n has none.
func planCollection(t testing.TB, n int, indexed bool) *Collection {
	t.Helper()
	c := NewCollection("t")
	if indexed {
		for _, spec := range []struct {
			field  string
			unique bool
		}{{"u", true}, {"a", false}, {"b", false}, {"c", false}} {
			if _, err := c.EnsureIndexDoc(bson.D(spec.field, 1), spec.unique); err != nil {
				t.Fatal(err)
			}
		}
	}
	docs := make([]*bson.Doc, n)
	for i := range docs {
		docs[i] = bson.D(bson.IDKey, i, "u", i, "a", i%20, "b", i%7, "c", i%3, "n", i%11)
	}
	if _, err := c.InsertMany(docs); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPlanEmptyConstraint: a filter whose conditions on an indexed field
// admit no value is an index scan that reads nothing — not, as it used to
// be, a scan of the whole collection that returns nothing. The translation
// layer produces exactly this: $in over a dimension find that matched no row.
func TestPlanEmptyConstraint(t *testing.T) {
	c := planCollection(t, 2000, true)
	and := func(clauses ...any) *bson.Doc { return bson.D("$and", bson.A(clauses...)) }
	for _, tc := range []struct {
		name   string
		filter *bson.Doc
	}{
		{"empty $in", bson.D("a", bson.D("$in", bson.A()))},
		{"empty $in beside a live clause", bson.D("a", bson.D("$in", bson.A()), "b", 2)},
		{"contradictory equalities", and(bson.D("a", 1), bson.D("a", 2))},
		{"$in and $eq disjoint", and(bson.D("a", bson.D("$in", bson.A(1, 2, 3))), bson.D("a", bson.D("$eq", 4)))},
		{"min above max", bson.D("a", bson.D("$gte", 9, "$lte", 3))},
		{"min meets an open max", bson.D("a", bson.D("$gte", 5, "$lt", 5))},
		{"on _id", bson.D(bson.IDKey, bson.D("$in", bson.A()))},
		{"on the unindexed field's neighbour", bson.D("n", 3, "u", bson.D("$in", bson.A()))},
	} {
		before := c.Stats()
		docs, plan, err := c.FindWithPlan(tc.filter, FindOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(docs) != 0 || plan.IndexUsed == "" || plan.DocsExamined != 0 || plan.KeysExamined != 0 {
			t.Errorf("%s: %s planned %s, want an index scan that examines nothing", tc.name, tc.filter, plan)
		}
		if after := c.Stats(); after.DocsExamined != before.DocsExamined || after.CollScans != before.CollScans {
			t.Errorf("%s: the collection's counters moved: %+v -> %+v", tc.name, before, after)
		}
		// And a write through the same plan touches nothing.
		if res, err := c.UpdateMany(tc.filter, bson.D("$set", bson.D("hit", true))); err != nil || res.Matched != 0 {
			t.Errorf("%s: update matched %d, %v", tc.name, res.Matched, err)
		}
	}
	// With no index on the field there is nothing to answer it with.
	if _, plan, _ := c.FindWithPlan(bson.D("n", bson.D("$in", bson.A())), FindOptions{}); plan.IndexUsed != "" || plan.DocsExamined != 2000 {
		t.Errorf("an empty $in on an unindexed field planned %s", plan)
	}
}

// TestPlanIntersects pins what the plan reads and what it says it read: the
// driving index chosen as ever, the other constrained indexes intersected
// cheapest first while the cost rule admits them, the covered clauses left
// out of the residual, and the plan line, the counters and the collection's
// statistics all telling the same numbers.
func TestPlanIntersects(t *testing.T) {
	const n = 4200 // a multiple of 20*7*3: every residue class is the same size
	c := planCollection(t, n, true)
	for _, tc := range []struct {
		name        string
		filter      *bson.Doc
		opts        FindOptions
		index       string
		intersected string
		keys        int
		examined    int
		returned    int
		covered     int
	}{
		// a_1 has more distinct keys than b_1 and drives; b_1's 600 entries are
		// worth walking to get from 210 candidates to 30.
		{"two points", bson.D("a", 3, "b", 2), FindOptions{}, "a_1", "b_1", 210 + 600, 30, 30, 2},
		{"two points and a residual", bson.D("a", 3, "b", 2, "n", bson.D("$lt", 5)), FindOptions{}, "a_1", "b_1", 810, 30, 14, 2},
		// Cheapest first: b_1 (600) before c_1 (1400).
		{"three indexes", bson.D("c", 1, "b", 2, "a", 3), FindOptions{}, "a_1", "b_1,c_1", 210 + 600 + 1400, 10, 10, 3},
		// The chooser prefers a point to a range, as ever.
		{"a point drives, a range narrows", bson.D("u", bson.D("$gte", 100, "$lte", 399), "a", 3), FindOptions{}, "a_1", "u_1", 210 + 300, 15, 15, 2},
		{"fewer than a handful of candidates", bson.D("u", bson.D("$in", bson.A(3, 23, 43)), "a", 3), FindOptions{}, "u_1", "", 3, 3, 3, 1},
		// 19 keys of a_1 are 3990 entries: more than 64 for each of 20
		// candidates, which the read learns at the sixth key (6 × 210 entries
		// and 6 × index.KeyCost > 1280) and says it walked.
		{"the cost rule turns a long list down", bson.D("u", bson.D("$gte", 0, "$lte", 19), "a", bson.D("$gte", 0, "$lte", 18)), FindOptions{}, "u_1", "", 20 + 6, 20, 19, 1},
		{"no intersection under a hint", bson.D("a", 3, "b", 2), FindOptions{Hint: "a_1"}, "a_1", "", 210, 210, 30, 1},
		{"an inexact clause stays", bson.D("a", bson.D("$gte", 3), "b", 2), FindOptions{}, "b_1", "a_1", 600 + 3570, 510, 510, 1},
		{"one index, one exact clause", bson.D("a", 3), FindOptions{}, "a_1", "", 210, 210, 210, 1},
		{"a limit stops the fetching, not the plan", bson.D("a", 3, "b", 2), FindOptions{Limit: 4}, "a_1", "b_1", 810, 4, 4, 2},
	} {
		before := c.Stats()
		docs, plan, err := c.FindWithPlan(tc.filter, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := strings.Join(plan.Intersected, ","); plan.IndexUsed != tc.index || got != tc.intersected ||
			plan.KeysExamined != tc.keys || plan.DocsExamined != tc.examined || plan.DocsReturned != tc.returned ||
			plan.ClausesCovered != tc.covered || len(docs) != tc.returned {
			t.Errorf("%s: %s planned %s (%d documents), want %s ∩ [%s] keys=%d examined=%d returned=%d covered=%d",
				tc.name, tc.filter, plan, len(docs), tc.index, tc.intersected, tc.keys, tc.examined, tc.returned, tc.covered)
		}
		m := query.MustCompile(tc.filter)
		for _, d := range docs {
			if !m.Matches(d) {
				t.Errorf("%s: returned %s, which the filter does not match", tc.name, d)
			}
		}
		after := c.Stats()
		if got := after.KeysExamined - before.KeysExamined; got != int64(tc.keys) {
			t.Errorf("%s: Stats.KeysExamined moved by %d, the plan says %d", tc.name, got, tc.keys)
		}
		if got := after.DocsExamined - before.DocsExamined; got != int64(tc.examined) {
			t.Errorf("%s: Stats.DocsExamined moved by %d, the plan says %d", tc.name, got, tc.examined)
		}
	}

	// The plan line: today's text and keys= for one index, the intersected
	// indexes named beside the driving one.
	_, plan, _ := c.FindWithPlan(bson.D("c", 1, "b", 2, "a", 3), FindOptions{})
	if got, want := plan.String(), fmt.Sprintf("IXSCAN a_1 ∩ b_1 ∩ c_1 on t keys=2210 examined=10 returned=10 covered=3 snapshot=%d", plan.SnapshotVersion); got != want {
		t.Errorf("plan line = %q, want %q", got, want)
	}
	_, plan, _ = c.FindWithPlan(bson.D("a", bson.D("$gte", 18)), FindOptions{})
	if got, want := plan.String(), fmt.Sprintf("IXSCAN a_1 on t keys=420 examined=420 returned=420 snapshot=%d", plan.SnapshotVersion); got != want {
		t.Errorf("plan line = %q, want %q", got, want)
	}
	_, plan, _ = c.FindWithPlan(bson.D("n", 3), FindOptions{})
	if got, want := plan.String(), fmt.Sprintf("COLLSCAN on t examined=%d returned=382 snapshot=%d", n, plan.SnapshotVersion); got != want {
		t.Errorf("plan line = %q, want %q", got, want)
	}
}

// TestPlanReadsNoFurtherThanTheRuleAdmits: the cost rule bounds the read of a
// second index, not only the walk over what was read. A point beside a range
// that spans a unique index (a key and "since then") gives up on the range
// after as many keys as the point's candidates could repay (a key of one entry
// costs 1 + index.KeyCost), counts them, and fetches what the point alone
// would have.
func TestPlanReadsNoFurtherThanTheRuleAdmits(t *testing.T) {
	const n, candidates = 40000, 20
	c := NewCollection("t")
	for _, spec := range []*bson.Doc{bson.D("u", 1), bson.D("a", 1)} {
		if _, err := c.EnsureIndexDoc(spec, false); err != nil {
			t.Fatal(err)
		}
	}
	docs := make([]*bson.Doc, n)
	for i := range docs {
		docs[i] = bson.D(bson.IDKey, i, "u", i, "a", i%(n/candidates))
	}
	if _, err := c.InsertMany(docs); err != nil {
		t.Fatal(err)
	}
	most := candidates + intersectMaxEntriesPerCandidate*candidates/(1+index.KeyCost) + 1
	for _, filter := range []*bson.Doc{
		bson.D("a", 3, "u", bson.D("$gte", 0)),
		bson.D("a", 3, "u", bson.D("$gte", 0, "$lt", n)),
		bson.D("a", 3, bson.IDKey, bson.D("$gt", -1)),
	} {
		docs, plan, err := c.FindWithPlan(filter, FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.IndexUsed != "a_1" || len(plan.Intersected) != 0 || len(docs) != candidates || plan.DocsExamined != candidates ||
			plan.KeysExamined <= candidates || plan.KeysExamined > most {
			t.Errorf("%s planned %s; want a_1 alone, %d documents, and more than %d but at most %d keys read", filter, plan, candidates, candidates, most)
		}
	}
	// A range the rule admits is read to its end and intersected.
	_, plan, _ := c.FindWithPlan(bson.D("a", 3, "u", bson.D("$gte", 0, "$lt", 70)), FindOptions{})
	if plan.String() != fmt.Sprintf("IXSCAN a_1 ∩ u_1 on t keys=90 examined=1 returned=1 covered=2 snapshot=%d", plan.SnapshotVersion) {
		t.Errorf("a range within the budget planned %s", plan)
	}
}

// TestPlanCompoundIndexOverArray: a compound index whose leading field holds
// arrays is multikey — one key per element — so it neither hides a document
// from a point on that field nor is taken for an index that answers the
// clause exactly.
func TestPlanCompoundIndexOverArray(t *testing.T) {
	c := NewCollection("t")
	for _, spec := range []*bson.Doc{bson.D("a", 1), bson.D("tags", 1, "n", 1)} {
		if _, err := c.EnsureIndexDoc(spec, false); err != nil {
			t.Fatal(err)
		}
	}
	docs := make([]*bson.Doc, 2000)
	for i := range docs {
		docs[i] = bson.D(bson.IDKey, i, "a", i%50, "tags", bson.A(i%5, 100), "n", i)
	}
	if _, err := c.InsertMany(docs); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		filter *bson.Doc
		plan   string
	}{
		// The compound index has more distinct keys and drives; a_1 narrows its
		// candidates and answers its own clause, the multikey scan answers none.
		{bson.D("a", 3, "tags", 3), "IXSCAN tags_1_n_1 ∩ a_1 on t keys=440 examined=40 returned=40 covered=1"},
		{bson.D("tags", 3), "IXSCAN tags_1_n_1 on t keys=400 examined=400 returned=400"},
		{bson.D("tags", bson.D("$gte", 100)), "IXSCAN tags_1_n_1 on t keys=2000 examined=2000 returned=2000"},
	} {
		_, plan, err := c.FindWithPlan(tc.filter, FindOptions{})
		if want := fmt.Sprintf("%s snapshot=%d", tc.plan, plan.SnapshotVersion); err != nil || plan.String() != want {
			t.Errorf("%s planned %s, %v; want %s", tc.filter, plan, err, want)
		}
	}
}

// TestWritesThroughIntersectedPlan: updates and deletes take their candidates
// and their residual from the same plan as finds. Whatever the plan — several
// indexes intersected, clauses left out, a driving list the ops themselves
// splice as they move entries out of it — they change exactly the documents
// they change in a collection with no index at all, where every document is
// checked against the whole filter.
func TestWritesThroughIntersectedPlan(t *testing.T) {
	const n = 4200
	indexed, plain := planCollection(t, n, true), planCollection(t, n, false)
	set := func(kv ...any) *bson.Doc { return bson.D("$set", bson.D(kv...)) }
	ops := []WriteOp{
		UpdateWriteOp(query.UpdateSpec{Query: bson.D("a", 3, "b", 2), Update: set("hit", 1), Multi: true}),
		// Moves every match out of the driving key while walking it.
		UpdateWriteOp(query.UpdateSpec{Query: bson.D("a", 4, "b", 2, "n", bson.D("$lt", 6)), Update: set("a", 5, "b", 3), Multi: true}),
		// And into a key a later op of the same batch drives by.
		UpdateWriteOp(query.UpdateSpec{Query: bson.D("a", 5, "b", 3), Update: bson.D("$inc", bson.D("n", 100)), Multi: true}),
		// multi: false lands on the lowest position, whatever order the index
		// gave the candidates in.
		UpdateWriteOp(query.UpdateSpec{Query: bson.D("c", 1, "b", bson.D("$in", bson.A(6, 5)), "a", 7), Update: set("first", true)}),
		DeleteWriteOp(bson.D("a", 9, "c", 0, "n", bson.D("$ne", 4)), true),
		DeleteWriteOp(bson.D("u", bson.D("$gte", 1000, "$lte", 1999), "b", 1), false),
		DeleteWriteOp(bson.D("a", bson.D("$gte", 10, "$lte", 12), "b", bson.D("$in", bson.A(0, 1)), "c", 2), true),
		UpdateWriteOp(query.UpdateSpec{Query: bson.D("a", 9, "c", 0), Update: set("left", true), Multi: true}),
	}
	contents := func(c *Collection) []*bson.Doc {
		s := c.Snapshot()
		defer s.Release()
		return sortByID(s.Docs())
	}
	compare := func(when string) {
		t.Helper()
		got, want := contents(indexed), contents(plain)
		if len(got) != len(want) {
			t.Fatalf("%s: %d documents through the plans, %d through scans", when, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: document %d:\n plans %s\n scans %s", when, i, got[i], want[i])
			}
		}
	}
	// One op at a time, then the same script again as one batch: the writer
	// plans against trees its own earlier ops have already changed.
	for i, op := range ops {
		ri := indexed.BulkWrite([]WriteOp{op}, BulkOptions{Ordered: true})
		rp := plain.BulkWrite([]WriteOp{op}, BulkOptions{Ordered: true})
		if ri.FirstError() != nil || rp.FirstError() != nil {
			t.Fatalf("op %d: %v / %v", i, ri.FirstError(), rp.FirstError())
		}
		if ri.Matched != rp.Matched || ri.Modified != rp.Modified || ri.Deleted != rp.Deleted || ri.Matched+ri.Deleted == 0 {
			t.Fatalf("op %d: through the plan matched %d modified %d deleted %d, through a scan %d %d %d (and none may be idle)",
				i, ri.Matched, ri.Modified, ri.Deleted, rp.Matched, rp.Modified, rp.Deleted)
		}
		compare(fmt.Sprintf("after op %d", i))
	}
	indexed, plain = planCollection(t, n, true), planCollection(t, n, false)
	ri, rp := indexed.BulkWrite(ops, BulkOptions{Ordered: true}), plain.BulkWrite(ops, BulkOptions{Ordered: true})
	if ri.FirstError() != nil || ri.Matched != rp.Matched || ri.Modified != rp.Modified || ri.Deleted != rp.Deleted {
		t.Fatalf("as one batch: %+v through the plans, %+v through scans", ri, rp)
	}
	compare("as one batch")
	// The indexes still agree with the records they point at.
	for _, f := range []*bson.Doc{bson.D("a", 5, "b", 3), bson.D("a", 9), bson.D("b", 1, "c", 2)} {
		s := indexed.Snapshot()
		if d := diffFind(indexed, s.Version(), f, true, scanFind(s, f)); d != "" {
			t.Error(d)
		}
		s.Release()
	}
}

// TestIndexedFindPlanAllocates guards what planning a find allocates beyond
// extracting the filter's constraints (query.FieldConstraints, which this
// change leaves as it was), as a number of allocations with the parent
// commit's beside it (PR 20, measured by the same subtraction).
//
//   - A single-point find on a non-multikey index reads its candidates from
//     the tree's own posting list: no candidate slice, whatever the list
//     holds. The parent allocated make([]int, 0, 16) and grew it by append.
//   - An intersected find allocates its candidate slice once, sized from the
//     lists' totals, and the names of the indexes it intersected; the
//     posting-list headers and the membership bits come from a pooled
//     scratch. A residual, where clauses are left, is a matcher, an $and node
//     and its children.
//   - A range allocates the candidate slice and nothing else.
func TestIndexedFindPlanAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the planner's scratch is pooled; see raceEnabled")
	}
	c := planCollection(t, 4200, true)
	s := c.Snapshot()
	defer s.Release()
	env := planEnv{coll: "t", indexes: s.v.indexes}
	for _, tc := range []struct {
		filter      *bson.Doc
		candidates  int
		max, parent float64
	}{
		{bson.D("u", 77), 1, 0, 2},
		{bson.D("a", 3), 210, 0, 6},                                // no slice to grow
		{bson.D("a", 3, "b", 2), 30, 2, 7},                         // candidates, names
		{bson.D("a", 3, "b", 2, "c", 1), 10, 2, 8},                 // the same, one buffer for both walks
		{bson.D("a", 3, "b", 2, "n", 1), 30, 4, 7},                 // + the residual: a matcher around the clause left
		{bson.D("u", bson.D("$gte", 100, "$lte", 399)), 300, 1, 7}, // candidates, sized once
	} {
		m := query.MustCompile(tc.filter)
		acc, err := env.plan(m, FindOptions{})
		if err != nil || len(acc.positions) != tc.candidates {
			t.Fatalf("plan %s: %d candidates, %v; want %d", tc.filter, len(acc.positions), err, tc.candidates)
		}
		constraints := testing.AllocsPerRun(50, func() { query.FieldConstraints(tc.filter) })
		planning := testing.AllocsPerRun(50, func() {
			if _, err := env.plan(m, FindOptions{}); err != nil {
				t.Fatal(err)
			}
		}) - constraints
		t.Logf("%s: planning allocates %.0f times (parent: %.0f)", tc.filter, planning, tc.parent)
		if planning > tc.max {
			t.Errorf("planning %s allocated %.0f times, want at most %.0f (parent: %.0f)", tc.filter, planning, tc.max, tc.parent)
		}
	}
}

// BenchmarkIntersectEntry measures the left side of the cost rule: what
// walking one posting-list entry costs an intersection (ns/op is per entry),
// with the entries in position order as inserts leave them, and scattered
// over four million records as years of updates might. The right side —
// fetching a cold candidate document and evaluating the residual on it — is
// BenchmarkExperiment3DenormalizedStandalone1GB's Matcher.Matches share
// divided by its candidates.
func BenchmarkIntersectEntry(b *testing.B) {
	for _, bc := range []struct {
		name      string
		records   int
		scattered bool
	}{{"ordered/128K-records", 1 << 17, false}, {"scattered/4M-records", 1 << 22, true}} {
		b.Run(bc.name, func(b *testing.B) {
			const listLen = 1 << 10
			r := rand.New(rand.NewSource(1))
			lists := make([][]uint32, 64)
			for i := range lists {
				lists[i] = make([]uint32, listLen)
				for k := range lists[i] {
					lists[i][k] = uint32((k*len(lists) + i) * 2 % bc.records)
					if bc.scattered {
						lists[i][k] = uint32(r.Intn(bc.records))
					}
				}
			}
			candidates := make([]uint32, 1024)
			limit := uint32(bc.records - 1)
			var scratch planScratch
			b.ResetTimer()
			for n := 0; n < b.N; n += len(lists) * listLen {
				for i := range candidates {
					candidates[i] = uint32(i * 97 % bc.records)
				}
				intersectPositions(candidates, lists, scratch.members(limit), limit)
			}
		})
	}
	// What the walks above paid once per 64 lists, on its own: zeroing the
	// membership bits of four million records (ns/op is per 64-byte line, 512
	// positions).
	b.Run("zero/4M-records", func(b *testing.B) {
		const limit = 1<<22 - 1
		var scratch planScratch
		for n := 0; n < b.N; n += (limit + 1) / 512 {
			scratch.members(limit)
		}
	})
}
