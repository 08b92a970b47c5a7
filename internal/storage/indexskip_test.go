package storage

import (
	"errors"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/index"
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
