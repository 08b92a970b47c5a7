package storage

import (
	"testing"

	"docstore/internal/bson"
)

// TestIndexScanAllocatesNothingPerEntry guards the positional index entries:
// an index hit is a record position, and the plan's candidate list is the
// tree's own posting list, so an index-served find costs the same handful of
// allocations whether its key holds one entry or ten thousand — only the
// result slice grows, a doubling at a time. Resolving each hit through its
// _id (a marshalled key and a map probe per entry) cost five allocations an
// entry; the bounds below are far under one. _id_ is such an index too.
func TestIndexScanAllocatesNothingPerEntry(t *testing.T) {
	c := NewCollection("scan")
	if _, err := c.EnsureIndexDoc(bson.D("g", 1), false); err != nil {
		t.Fatal(err)
	}
	// Key g holds sizes[g] entries.
	sizes := []int{1, 100, 10000}
	var docs []*bson.Doc
	for g, n := range sizes {
		for i := 0; i < n; i++ {
			docs = append(docs, bson.D("g", g, "v", i))
		}
	}
	if _, err := c.InsertMany(docs); err != nil {
		t.Fatal(err)
	}
	allocs := make([]float64, len(sizes))
	for g, n := range sizes {
		filter := bson.D("g", g)
		got, plan, err := c.FindWithPlan(filter, FindOptions{})
		if err != nil || plan.IndexUsed != "g_1" || len(got) != n {
			t.Fatalf("find g=%d: %d documents, plan %s, %v; want %d through g_1", g, len(got), plan, err, n)
		}
		allocs[g] = testing.AllocsPerRun(10, func() {
			if _, err := c.Find(filter, FindOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A by-_id find is one more point find, through _id_: a constant few
	// allocations, whatever the collection holds and wherever the id sits.
	id := docs[len(docs)/2].ID()
	idFilter := bson.D(bson.IDKey, id)
	idFind := testing.AllocsPerRun(10, func() {
		if got, err := c.Find(idFilter, FindOptions{}); err != nil || len(got) != 1 {
			t.Fatalf("find by _id: %v, %v", got, err)
		}
	})
	findID := testing.AllocsPerRun(10, func() {
		if c.FindID(id) == nil {
			t.Fatal("FindID missed")
		}
	})
	t.Logf("allocations per find: %v for %v entries, %v by _id, %v for FindID", allocs, sizes, idFind, findID)
	if idFind > allocs[0] {
		t.Errorf("a find by _id allocated %.0f times, a 1-entry point find through g_1 %.0f", idFind, allocs[0])
	}
	if findID > 4 {
		t.Errorf("FindID allocated %.0f times, want a constant few", findID)
	}
	if extra := allocs[1] - allocs[0]; extra > 16 {
		t.Errorf("a 100-entry index scan allocated %.0f times more than a 1-entry point find, want a constant few", extra)
	}
	if extra := allocs[2] - allocs[0]; extra > 64 {
		t.Errorf("a 10000-entry index scan allocated %.0f times more than a 1-entry point find, want slice growth only", extra)
	}
}
