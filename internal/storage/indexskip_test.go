package storage

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/index"
	"docstore/internal/query"
)

// treeBytesCopiedBy returns how many index-tree bytes fn's writes
// path-copied.
func treeBytesCopiedBy(c *Collection, fn func()) int64 {
	before := c.EngineStats().TreeBytesCopied
	fn()
	return c.EngineStats().TreeBytesCopied - before
}

func findIDs(t *testing.T, c *Collection, filter *bson.Doc, wantIndex string) []any {
	t.Helper()
	docs, plan, err := c.FindWithPlan(filter, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.IndexUsed != wantIndex {
		t.Fatalf("filter %s planned %s, want index %s", filter, plan, wantIndex)
	}
	ids := make([]any, len(docs))
	for i, d := range docs {
		ids[i] = d.ID()
	}
	return ids
}

// TestUpdateLeavesUnchangedIndexesAlone pins the index-maintenance skip: an
// update that does not change a document's keys in an index does not touch
// that index's tree (zero bytes path-copied), while one that does change
// them still moves the entry — for plain, multikey and unique indexes.
func TestUpdateLeavesUnchangedIndexesAlone(t *testing.T) {
	cases := []struct {
		name   string
		spec   *bson.Doc
		unique bool
		// field is the indexed field; from and to are document 1's value
		// before and after the key-changing update, oldKey and newKey a key
		// only the old and only the new value produce.
		field          string
		from, to       any
		oldKey, newKey any
	}{
		{name: "single", spec: bson.D("g", 1), field: "g", from: 7, to: 8, oldKey: 7, newKey: 8},
		{name: "multikey", spec: bson.D("tags", 1), field: "tags", from: bson.A("a", "b"), to: bson.A("b", "c"), oldKey: "a", newKey: "c"},
		{name: "unique", spec: bson.D("u", 1), unique: true, field: "u", from: 100, to: 200, oldKey: 100, newKey: 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollection("c")
			ixName := tc.field + "_1"
			if _, err := c.EnsureIndexDoc(tc.spec, tc.unique); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Insert(bson.D(bson.IDKey, 1, tc.field, tc.from, "v", 0)); err != nil {
				t.Fatal(err)
			}
			// A second document keeps the unique index honest and gives the
			// duplicate-key probe below something to collide with.
			if _, err := c.Insert(bson.D(bson.IDKey, 2, tc.field, "other", "v", 0)); err != nil {
				t.Fatal(err)
			}

			// Writing a field the index does not cover: no tree byte moves,
			// the entry stays where it was.
			copied := treeBytesCopiedBy(c, func() {
				res, err := c.UpdateMany(nil, bson.D("$inc", bson.D("v", 1)))
				if err != nil || res.Modified != 2 {
					t.Fatalf("update of v: %+v, %v", res, err)
				}
			})
			if copied != 0 {
				t.Fatalf("update of an unindexed field copied %d index-tree bytes, want 0", copied)
			}
			if ids := findIDs(t, c, bson.D(tc.field, tc.oldKey), ixName); len(ids) != 1 || bson.Compare(ids[0], int64(1)) != 0 {
				t.Fatalf("entry lost by a skipped update: ids %v", ids)
			}

			// Writing the indexed field: the entry moves.
			copied = treeBytesCopiedBy(c, func() {
				res, err := c.UpdateOne(bson.D(bson.IDKey, 1), bson.D("$set", bson.D(tc.field, tc.to)))
				if err != nil || res.Modified != 1 {
					t.Fatalf("update of %s: %+v, %v", tc.field, res, err)
				}
			})
			if copied <= 0 {
				t.Fatalf("update of the indexed field copied %d index-tree bytes, want > 0", copied)
			}
			if ids := findIDs(t, c, bson.D(tc.field, tc.oldKey), ixName); len(ids) != 0 {
				t.Fatalf("old key still resolves to %v", ids)
			}
			if ids := findIDs(t, c, bson.D(tc.field, tc.newKey), ixName); len(ids) != 1 || bson.Compare(ids[0], int64(1)) != 0 {
				t.Fatalf("new key resolves to %v, want [1]", ids)
			}

			if tc.unique {
				_, err := c.UpdateOne(bson.D(bson.IDKey, 1), bson.D("$set", bson.D(tc.field, "other")))
				var dup *index.ErrDuplicateKey
				if !errors.As(err, &dup) {
					t.Fatalf("moving onto a taken unique key: %v, want ErrDuplicateKey", err)
				}
			}
		})
	}
}

// skipIndexes are the five kinds of index an update may skip or must move,
// and a unique one made last, so that its refusal rolls back the others.
var skipIndexes = []struct {
	spec   *bson.Doc
	unique bool
}{
	{bson.D("s", 1), false},
	{bson.D("c1", 1, "c2", 1), false},
	{bson.D("a.b", 1), false},
	{bson.D("tags", 1), false},
	{bson.D("h", "hashed"), false},
	{bson.D("k", 1), true},
}

// skipFilters are index-served finds replayed against a pinned version.
var skipFilters = []*bson.Doc{
	bson.D("s", 1), bson.D("c1", 1, "c2", 0), bson.D("a.b", 2), bson.D("tags", "t1"), bson.D("h", 3), bson.D("k", 5),
}

// skipSteps are the updates of TestUpdateIndexSkipEquivalence, each with
// whether it writes only unindexed fields and whether it fails: part-way
// through a multi-update, or on the unique index, after another index moved.
var skipSteps = []struct {
	spec      query.UpdateSpec
	unindexed bool
	fails     bool
}{
	// Reaching an indexed field through a nested path, or writing beside it.
	{spec: query.UpdateSpec{Query: bson.D("c1", 0), Update: bson.D("$set", bson.D("a.b", 2)), Multi: true}},
	{spec: query.UpdateSpec{Update: bson.D("$inc", bson.D("a.x", 1)), Multi: true}},
	{spec: query.UpdateSpec{Query: bson.D("s", 1), Update: bson.D("$set", bson.D("a", bson.D("b", 0, "x", 5))), Multi: true}},
	{spec: query.UpdateSpec{Query: bson.D("c2", 1), Update: bson.D("$unset", bson.D("a.b", "")), Multi: true}},
	{spec: query.UpdateSpec{Query: bson.D("s", 2), Update: bson.D("$set", bson.D("a", 7)), Multi: true}},
	// $rename out of and into indexed fields.
	{spec: query.UpdateSpec{Query: bson.D("s", 3), Update: bson.D("$rename", bson.D("s", "u")), Multi: true}},
	{spec: query.UpdateSpec{Query: bson.D("u", 3), Update: bson.D("$rename", bson.D("u", "s")), Multi: true}},
	{spec: query.UpdateSpec{Query: bson.D("c1", 1), Update: bson.D("$rename", bson.D("c2", "a.b")), Multi: true}, fails: true},
	{spec: query.UpdateSpec{Update: bson.D("$rename", bson.D("h", "hh")), Multi: true}},
	{spec: query.UpdateSpec{Update: bson.D("$rename", bson.D("hh", "h")), Multi: true}},
	// $unset of an indexed field.
	{spec: query.UpdateSpec{Query: bson.D("c1", 2), Update: bson.D("$unset", bson.D("c1", "")), Multi: true}},
	{spec: query.UpdateSpec{Query: bson.D("s", 0), Update: bson.D("$unset", bson.D("tags", "")), Multi: true}},
	{spec: query.UpdateSpec{Query: bson.D("s", 1), Update: bson.D("$unset", bson.D("h", "")), Multi: true}},
	// Positional array writes, under the multikey index.
	{spec: query.UpdateSpec{Update: bson.D("$push", bson.D("tags", "t2")), Multi: true}},
	{spec: query.UpdateSpec{Query: bson.D("tags", "t0"), Update: bson.D("$pull", bson.D("tags", "t0")), Multi: true}},
	{spec: query.UpdateSpec{Update: bson.D("$pop", bson.D("tags", -1)), Multi: true}},
	{spec: query.UpdateSpec{Update: bson.D("$addToSet", bson.D("tags", "t1")), Multi: true}},
	{spec: query.UpdateSpec{Query: bson.D("s", 1), Update: bson.D("$set", bson.D("tags.0", "t0")), Multi: true}, fails: true},
	// The unique index refuses after the compound one moved; then every
	// row moves its unique key.
	{spec: query.UpdateSpec{Query: bson.D(bson.IDKey, 3), Update: bson.D("$set", bson.D("c1", 5, "k", 4))}, fails: true},
	{spec: query.UpdateSpec{Update: bson.D("$inc", bson.D("k", 1000)), Multi: true}},
	// Unindexed fields only.
	{spec: query.UpdateSpec{Update: bson.D("$inc", bson.D("v", 1)), Multi: true}, unindexed: true},
	{spec: query.UpdateSpec{Update: bson.D("$set", bson.D("n.m", 3)), Multi: true}, unindexed: true},
	{spec: query.UpdateSpec{Update: bson.D("$rename", bson.D("v", "w")), Multi: true}, unindexed: true},
	{spec: query.UpdateSpec{Update: bson.D("$push", bson.D("log", 1)), Multi: true}, unindexed: true},
	{spec: query.UpdateSpec{Update: bson.D("$unset", bson.D("w", "")), Multi: true}, unindexed: true},
}

func skipCollection(t *testing.T) *Collection {
	t.Helper()
	c := NewCollection("skip")
	for _, ix := range skipIndexes {
		if _, err := c.EnsureIndexDoc(ix.spec, ix.unique); err != nil {
			t.Fatal(err)
		}
	}
	tags := []string{"t0", "t1", "t2"}
	for i := 0; i < 24; i++ {
		doc := bson.D(bson.IDKey, i, "k", i, "s", i%4, "c1", i%3, "c2", i%2, "a", bson.D("b", i%3, "x", 0),
			"tags", bson.A(tags[i%3], tags[(i+1)%3]), "h", i%4, "v", 0, "n", bson.D("m", 0))
		if _, err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// checkIndexesMatchRebuild compares every index of c, key by key over the
// domain the steps can reach, with an index built afresh over the documents
// c stores: the same positions under every key, and no entry elsewhere.
func checkIndexesMatchRebuild(t *testing.T, c *Collection, step string) {
	t.Helper()
	vals := []any{nil, "t0", "t1", "t2"}
	for i := 0; i < 30; i++ {
		vals = append(vals, int64(i), int64(1000+i))
	}
	for _, ix := range c.Indexes() {
		fresh := index.New(ix.Name(), ix.Spec(), ix.Unique())
		for pos := 0; pos < c.length; pos++ {
			if r := c.writerRecord(pos); r != nil && !r.deleted {
				if err := fresh.Insert(r.doc, pos); err != nil {
					t.Fatalf("%s: rebuilding %s: %v", step, ix.Name(), err)
				}
			}
		}
		if ix.Len() != fresh.Len() {
			t.Fatalf("%s: index %s holds %d entries, a rebuild %d", step, ix.Name(), ix.Len(), fresh.Len())
		}
		entries := 0
		compare := func(key string, got, want []int) {
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: index %s key %s: positions %v, a rebuild %v", step, ix.Name(), key, got, want)
			}
			entries += len(got)
		}
		if len(ix.Spec().Fields) == 1 {
			for _, v := range vals {
				compare(fmt.Sprint(v), ix.Lookup(v), fresh.Lookup(v))
			}
		} else {
			for _, v := range vals {
				for _, w := range vals {
					key := index.Key{v, w}
					compare(fmt.Sprint(key), ix.LookupKey(key), fresh.LookupKey(key))
				}
			}
		}
		if entries != ix.Len() {
			t.Fatalf("%s: index %s holds %d entries, %d of them under the keys of the domain", step, ix.Name(), ix.Len(), entries)
		}
	}
}

// TestUpdateIndexSkipEquivalence: an update maintains only the indexes over
// the top-level fields it wrote. Over single, compound, dotted, multikey and
// hashed indexes, and updates that reach an indexed field through a nested
// path, $rename into and out of one, $unset one, write arrays in place, or
// write no indexed field at all, every index agrees with one rebuilt from the
// stored documents after every step, a version pinned before the step still
// finds what it held, and an update of unindexed fields copies no index-tree
// byte. The same steps as one batch, in one copy-on-write era, end in the
// same state.
func TestUpdateIndexSkipEquivalence(t *testing.T) {
	c := skipCollection(t)
	checkIndexesMatchRebuild(t, c, "inserted")
	for i, st := range skipSteps {
		step := fmt.Sprintf("step %d %s", i, st.spec.Update)
		pinned := c.Snapshot()
		want := make([][]*bson.Doc, len(skipFilters))
		for j, f := range skipFilters {
			want[j] = scanFind(pinned, f)
		}
		var err error
		copied := treeBytesCopiedBy(c, func() { _, err = c.Update(st.spec) })
		if (err != nil) != st.fails {
			t.Fatalf("%s: error %v, want one: %v", step, err, st.fails)
		}
		if st.unindexed && copied != 0 {
			t.Fatalf("%s writes no indexed field, but copied %d index-tree bytes", step, copied)
		}
		checkIndexesMatchRebuild(t, c, step)
		current := c.Snapshot()
		for j, f := range skipFilters {
			if d := diffFind(c, pinned.Version(), f, true, want[j]); d != "" {
				t.Fatalf("%s, pinned version: %s", step, d)
			}
			if d := diffFind(c, current.Version(), f, true, scanFind(current, f)); d != "" {
				t.Fatalf("%s: %s", step, d)
			}
		}
		current.Release()
		pinned.Release()
	}

	batched := skipCollection(t)
	ops := make([]WriteOp, len(skipSteps))
	for i, st := range skipSteps {
		ops[i] = UpdateWriteOp(st.spec)
	}
	batched.BulkWrite(ops, BulkOptions{})
	checkIndexesMatchRebuild(t, batched, "one batch")
	final := c.Snapshot()
	defer final.Release()
	for _, d := range final.Docs() {
		if got := batched.FindID(d.ID()); !got.Equal(d) {
			t.Fatalf("document %v: %v in one batch, %v step by step", d.ID(), got, d)
		}
	}
}
