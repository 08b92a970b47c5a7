package storage

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/index"
	"docstore/internal/query"
)

func TestInsertAssignsObjectID(t *testing.T) {
	c := NewCollection("store_sales")
	d := bson.D("ss_item_sk", 1)
	id, err := c.Insert(d)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, ok := id.(bson.ObjectID); !ok {
		t.Fatalf("assigned id is %T, want ObjectID", id)
	}
	// _id leads the stored document.
	if d.Keys()[0] != bson.IDKey {
		t.Fatalf("_id should be the first field, got %v", d.Keys())
	}
	if c.Count() != 1 {
		t.Fatalf("Count = %d", c.Count())
	}
	if c.Name() != "store_sales" {
		t.Fatalf("Name = %q", c.Name())
	}
}

func TestInsertExplicitIDAndDuplicate(t *testing.T) {
	c := NewCollection("t")
	if _, err := c.Insert(bson.D(bson.IDKey, 5, "v", "a")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	_, err := c.Insert(bson.D(bson.IDKey, 5, "v", "b"))
	var dup *ErrDuplicateID
	if !errors.As(err, &dup) {
		t.Fatalf("duplicate insert error = %v", err)
	}
	if got := c.FindID(5); got == nil {
		t.Fatalf("FindID(5) = nil")
	} else if v, _ := got.Get("v"); v != "a" {
		t.Fatalf("stored doc = %s", got)
	}
	if c.FindID(99) != nil {
		t.Fatalf("FindID(99) should be nil")
	}

	// _id is unique by value, as the matcher compares it: 5.0 is 5. The
	// refusal survives BulkWrite's per-op attribution and leaves every index
	// as it was.
	if _, err := c.EnsureIndexDoc(bson.D("v", 1), false); err != nil {
		t.Fatal(err)
	}
	res := c.BulkWrite([]WriteOp{InsertWriteOp(bson.D(bson.IDKey, 5.0, "v", "c"))}, BulkOptions{})
	dup = nil
	if len(res.Errors) != 1 || !errors.As(res.Errors[0], &dup) || dup.ID != 5.0 {
		t.Fatalf("insert of _id 5.0 beside _id 5: %+v", res)
	}
	if n := c.Index(idIndexName).Len(); n != 1 || c.Index("v_1").Len() != 1 || c.Count() != 1 {
		t.Fatalf("refused insert left entries: _id_ %d, v_1 %d, count %d", n, c.Index("v_1").Len(), c.Count())
	}
	for _, f := range []*bson.Doc{bson.D(bson.IDKey, 5), bson.D(bson.IDKey, 5.0), bson.D(bson.IDKey, bson.D("$in", bson.A(5)))} {
		if docs, _ := c.FindAll(f); len(docs) != 1 {
			t.Fatalf("find %s = %v, want the one document", f, docs)
		}
	}

	// An array cannot be an _id.
	if _, err := c.Insert(bson.D(bson.IDKey, bson.A(1, 2))); err == nil || c.Count() != 1 {
		t.Fatalf("insert of an array _id: err %v, count %d", err, c.Count())
	}
}

func TestInsertRejectsOversizedDocument(t *testing.T) {
	c := NewCollection("t")
	big := bson.D("payload", strings.Repeat("x", bson.MaxDocumentSize))
	_, err := c.Insert(big)
	var tooBig *ErrDocumentTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("error = %v, want ErrDocumentTooLarge", err)
	}
	if tooBig.Error() == "" {
		t.Fatalf("empty error message")
	}
}

func TestInsertManyAndScanOrder(t *testing.T) {
	c := NewCollection("t")
	var docs []*bson.Doc
	for i := 0; i < 10; i++ {
		docs = append(docs, bson.D(bson.IDKey, i, "n", i*10))
	}
	ids, err := c.InsertMany(docs)
	if err != nil || len(ids) != 10 {
		t.Fatalf("InsertMany: ids=%d err=%v", len(ids), err)
	}
	var seen []int64
	c.Scan(func(d *bson.Doc) bool {
		v, _ := d.Get(bson.IDKey)
		seen = append(seen, v.(int64))
		return true
	})
	for i, v := range seen {
		if v != int64(i) {
			t.Fatalf("scan order = %v", seen)
		}
	}
	// Early stop.
	n := 0
	c.Scan(func(*bson.Doc) bool { n++; return false })
	if n != 1 {
		t.Fatalf("scan early stop visited %d", n)
	}
	// InsertMany stops at the first error and reports prior ids.
	ids, err = c.InsertMany([]*bson.Doc{bson.D(bson.IDKey, 100), bson.D(bson.IDKey, 0)})
	if err == nil || len(ids) != 1 {
		t.Fatalf("partial InsertMany: ids=%v err=%v", ids, err)
	}
}

func TestFindWithFilterCollectionScan(t *testing.T) {
	c := NewCollection("customer")
	for i := 0; i < 100; i++ {
		gender := "M"
		if i%2 == 1 {
			gender = "F"
		}
		if _, err := c.Insert(bson.D(bson.IDKey, i, "cd_gender", gender, "n", i)); err != nil {
			t.Fatal(err)
		}
	}
	docs, plan, err := c.FindWithPlan(bson.D("cd_gender", "M"), FindOptions{})
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	if len(docs) != 50 {
		t.Fatalf("got %d docs", len(docs))
	}
	if plan.IndexUsed != "" {
		t.Fatalf("expected COLLSCAN, got %s", plan.IndexUsed)
	}
	if plan.DocsExamined != 100 {
		t.Fatalf("DocsExamined = %d", plan.DocsExamined)
	}
	if !strings.Contains(plan.String(), "COLLSCAN") {
		t.Fatalf("plan string = %q", plan.String())
	}
}

func TestFindUsesIndex(t *testing.T) {
	c := NewCollection("item")
	for i := 0; i < 1000; i++ {
		if _, err := c.Insert(bson.D(bson.IDKey, i, "i_category", fmt.Sprintf("cat%d", i%10), "i_price", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.EnsureIndexDoc(bson.D("i_category", 1), false); err != nil {
		t.Fatal(err)
	}
	docs, plan, err := c.FindWithPlan(bson.D("i_category", "cat3"), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 100 {
		t.Fatalf("got %d docs", len(docs))
	}
	if plan.IndexUsed != "i_category_1" {
		t.Fatalf("IndexUsed = %q", plan.IndexUsed)
	}
	if plan.DocsExamined != 100 {
		t.Fatalf("DocsExamined = %d, want 100 (index narrowed)", plan.DocsExamined)
	}
	if !strings.Contains(plan.String(), "IXSCAN") {
		t.Fatalf("plan string = %q", plan.String())
	}
	// Range over an indexed numeric field.
	if _, err := c.EnsureIndexDoc(bson.D("i_price", 1), false); err != nil {
		t.Fatal(err)
	}
	docs, plan, err = c.FindWithPlan(bson.D("i_price", bson.D("$gte", 10, "$lt", 20)), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 10 || plan.IndexUsed != "i_price_1" {
		t.Fatalf("range via index: %d docs, index %q", len(docs), plan.IndexUsed)
	}
	// Residual predicates still apply after the index narrows candidates.
	docs, _, err = c.FindWithPlan(bson.D("i_category", "cat3", "i_price", bson.D("$lt", 100)), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 10 {
		t.Fatalf("residual filter: got %d docs", len(docs))
	}
	// Stats track scan types.
	st := c.Stats()
	if st.IndexScans == 0 || st.IndexCount != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFindHint(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 50; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "a", i%5, "b", i%10))
	}
	_, _ = c.EnsureIndexDoc(bson.D("a", 1), false)
	_, _ = c.EnsureIndexDoc(bson.D("b", 1), false)
	_, plan, err := c.FindWithPlan(bson.D("a", 1, "b", 1), FindOptions{Hint: "b_1"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.IndexUsed != "b_1" {
		t.Fatalf("hint ignored, used %q", plan.IndexUsed)
	}
}

func TestFindSortSkipLimitProjection(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 20; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "v", 19-i, "junk", "x"))
	}
	docs, err := c.Find(nil, FindOptions{
		Sort:       query.MustParseSort(bson.D("v", 1)),
		Skip:       5,
		Limit:      3,
		Projection: query.MustParseProjection(bson.D("v", 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 {
		t.Fatalf("got %d docs", len(docs))
	}
	for i, d := range docs {
		v, _ := d.Get("v")
		if v != int64(5+i) {
			t.Fatalf("doc %d v = %v", i, v)
		}
		if d.Has("junk") {
			t.Fatalf("projection not applied: %s", d)
		}
	}
	// Skip beyond the result set.
	docs, err = c.Find(nil, FindOptions{Skip: 100})
	if err != nil || len(docs) != 0 {
		t.Fatalf("skip beyond end: %d docs, err %v", len(docs), err)
	}
	// Limit without sort short-circuits the scan.
	_, plan, _ := c.FindWithPlan(nil, FindOptions{Limit: 4})
	if plan.DocsExamined != 4 {
		t.Fatalf("limit short-circuit examined %d", plan.DocsExamined)
	}
}

func TestFindOneAndCountDocs(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 10; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "even", i%2 == 0))
	}
	d, err := c.FindOne(bson.D("even", true))
	if err != nil || d == nil {
		t.Fatalf("FindOne: %v %v", d, err)
	}
	d, err = c.FindOne(bson.D("even", "nope"))
	if err != nil || d != nil {
		t.Fatalf("FindOne no match: %v %v", d, err)
	}
	n, err := c.CountDocs(bson.D("even", true))
	if err != nil || n != 5 {
		t.Fatalf("CountDocs = %d, %v", n, err)
	}
	n, err = c.CountDocs(nil)
	if err != nil || n != 10 {
		t.Fatalf("CountDocs(nil) = %d, %v", n, err)
	}
	if _, err := c.FindAll(bson.D("$bogus", 1)); err == nil {
		t.Fatalf("invalid filter should error")
	}
}

func TestDistinct(t *testing.T) {
	c := NewCollection("store")
	cities := []string{"Midway", "Fairview", "Midway", "Oak Grove"}
	for i, city := range cities {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "s_city", city))
	}
	vals, err := c.Distinct("s_city", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0] != "Fairview" || vals[1] != "Midway" || vals[2] != "Oak Grove" {
		t.Fatalf("Distinct = %v", vals)
	}
	vals, err = c.Distinct("s_city", bson.D("s_city", bson.D("$ne", "Midway")))
	if err != nil || len(vals) != 2 {
		t.Fatalf("filtered Distinct = %v, %v", vals, err)
	}
}

func TestUpdateOneAndMany(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 10; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "group", i%2, "v", 0))
	}
	res, err := c.UpdateOne(bson.D("group", 0), bson.D("$set", bson.D("v", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 1 || res.Modified != 1 {
		t.Fatalf("UpdateOne result = %+v", res)
	}
	res, err = c.UpdateMany(bson.D("group", 1), bson.D("$set", bson.D("v", 9)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 5 || res.Modified != 5 {
		t.Fatalf("UpdateMany result = %+v", res)
	}
	n, _ := c.CountDocs(bson.D("v", 9))
	if n != 5 {
		t.Fatalf("post-update count = %d", n)
	}
	// No-op update reports matched but not modified.
	res, _ = c.UpdateMany(bson.D("group", 1), bson.D("$set", bson.D("v", 9)))
	if res.Matched != 5 || res.Modified != 0 {
		t.Fatalf("no-op update result = %+v", res)
	}
	// Invalid filter and invalid update surface errors.
	if _, err := c.UpdateOne(bson.D("$bad", 1), bson.D("$set", bson.D("a", 1))); err == nil {
		t.Fatalf("invalid filter should error")
	}
	if _, err := c.UpdateOne(bson.D("group", 0), bson.D("$bogus", bson.D("a", 1))); err == nil {
		t.Fatalf("invalid update should error")
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	c := NewCollection("t")
	_, _ = c.EnsureIndexDoc(bson.D("k", 1), false)
	for i := 0; i < 20; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "k", "old"))
	}
	if _, err := c.UpdateMany(bson.D("k", "old"), bson.D("$set", bson.D("k", "new"))); err != nil {
		t.Fatal(err)
	}
	docs, plan, err := c.FindWithPlan(bson.D("k", "new"), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 20 || plan.IndexUsed != "k_1" {
		t.Fatalf("index after update: %d docs via %q", len(docs), plan.IndexUsed)
	}
	docs, _, _ = c.FindWithPlan(bson.D("k", "old"), FindOptions{})
	if len(docs) != 0 {
		t.Fatalf("stale index entries: %d docs", len(docs))
	}
}

func TestUpdateUpsert(t *testing.T) {
	c := NewCollection("t")
	res, err := c.Update(query.UpdateSpec{
		Query:  bson.D("sku", "A-17"),
		Update: bson.D("$set", bson.D("qty", 5)),
		Upsert: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 0 || res.UpsertedID == nil {
		t.Fatalf("upsert result = %+v", res)
	}
	d, _ := c.FindOne(bson.D("sku", "A-17"))
	if d == nil {
		t.Fatalf("upserted document not found")
	}
	if v, _ := d.Get("qty"); v != int64(5) {
		t.Fatalf("upserted doc = %s", d)
	}
	// Second time matches and does not insert.
	res, err = c.Update(query.UpdateSpec{
		Query:  bson.D("sku", "A-17"),
		Update: bson.D("$inc", bson.D("qty", 1)),
		Upsert: true,
		Multi:  true,
	})
	if err != nil || res.Matched != 1 || res.UpsertedID != nil {
		t.Fatalf("second upsert = %+v err=%v", res, err)
	}
	if c.Count() != 1 {
		t.Fatalf("Count = %d", c.Count())
	}
	// Replacement-style upsert.
	res, err = c.Update(query.UpdateSpec{
		Query:  bson.D(bson.IDKey, 99),
		Update: bson.D("name", "fresh"),
		Upsert: true,
	})
	if err != nil || res.UpsertedID == nil {
		t.Fatalf("replacement upsert = %+v err=%v", res, err)
	}
	if d := c.FindID(99); d == nil {
		t.Fatalf("replacement upsert did not honour _id from the query")
	}
}

func TestUpdateRejectsOversizedGrowth(t *testing.T) {
	c := NewCollection("t")
	_, _ = c.Insert(bson.D(bson.IDKey, 1, "v", "small"))
	_, err := c.UpdateOne(bson.D(bson.IDKey, 1),
		bson.D("$set", bson.D("v", strings.Repeat("x", bson.MaxDocumentSize))))
	var tooBig *ErrDocumentTooLarge
	if !errors.As(err, &tooBig) {
		t.Fatalf("error = %v", err)
	}
	// Document content is unchanged after the failed update.
	d := c.FindID(1)
	if v, _ := d.Get("v"); v != "small" {
		t.Fatalf("document mutated by failed update")
	}
}

func TestDelete(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 10; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "even", i%2 == 0))
	}
	n, err := c.Delete(bson.D("even", true), false)
	if err != nil || n != 1 {
		t.Fatalf("single delete: %d, %v", n, err)
	}
	n, err = c.Delete(bson.D("even", true), true)
	if err != nil || n != 4 {
		t.Fatalf("multi delete: %d, %v", n, err)
	}
	if c.Count() != 5 {
		t.Fatalf("Count = %d", c.Count())
	}
	ok, err := c.DeleteID(1)
	if err != nil || !ok {
		t.Fatalf("DeleteID: %v %v", ok, err)
	}
	ok, _ = c.DeleteID(1)
	if ok {
		t.Fatalf("second DeleteID should be false")
	}
	if _, err := c.Delete(bson.D("$bad", 1), true); err == nil {
		t.Fatalf("invalid filter should error")
	}
	// DataSize shrinks as documents are removed.
	if c.DataSize() <= 0 {
		t.Fatalf("DataSize = %d", c.DataSize())
	}
}

func TestDeleteTriggersCompaction(t *testing.T) {
	c := NewCollection("t")
	if _, err := c.EnsureIndexDoc(bson.D("v", 1), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "v", i))
	}
	if _, err := c.Delete(bson.D("v", bson.D("$lt", 200)), true); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 100 {
		t.Fatalf("Count = %d", c.Count())
	}
	// Every remaining document is still reachable by id and by scan.
	found := 0
	c.Scan(func(*bson.Doc) bool { found++; return true })
	if found != 100 {
		t.Fatalf("scan found %d", found)
	}
	for i := 200; i < 300; i++ {
		if c.FindID(i) == nil {
			t.Fatalf("FindID(%d) lost after compaction", i)
		}
		// The compaction moved the record to position i-200; its index entry
		// moved with it.
		docs, plan, err := c.FindWithPlan(bson.D("v", i), FindOptions{})
		if err != nil || plan.IndexUsed != "v_1" || len(docs) != 1 || docs[0].ID() != int64(i) {
			t.Fatalf("find v=%d after compaction: %v, plan %s, %v", i, docs, plan, err)
		}
	}
}

// TestDeleteOneThroughIndexRemovesFirstInScanOrder: a multi: false delete
// that an index narrows removes the matching document a collection scan
// would reach first, whatever order the key's entries are in — the order is
// history (here an update moved the oldest document's entry to the end), and
// a secondary or a recovered node that rebuilt its trees has a different one.
func TestDeleteOneThroughIndexRemovesFirstInScanOrder(t *testing.T) {
	c := NewCollection("t")
	if _, err := c.EnsureIndexDoc(bson.D("g", 1), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "g", 1))
	}
	for _, g := range []int{2, 1} { // _id 0 leaves g=1 and comes back, last in the key
		if _, err := c.UpdateOne(bson.D(bson.IDKey, 0), bson.D("$set", bson.D("g", g))); err != nil {
			t.Fatal(err)
		}
	}
	if docs, plan, _ := c.FindWithPlan(bson.D("g", 1), FindOptions{}); plan.IndexUsed != "g_1" || docs[0].ID() == int64(0) {
		t.Fatalf("set-up: index order should not start with _id 0: %v, plan %s", docs, plan)
	}
	if n, err := c.Delete(bson.D("g", 1), false); err != nil || n != 1 {
		t.Fatalf("delete one: %d, %v", n, err)
	}
	if c.FindID(0) != nil || c.FindID(1) == nil || c.FindID(2) == nil {
		t.Fatalf("delete one removed the wrong document: _id 0 present=%v", c.FindID(0) != nil)
	}
}

// TestUpdateOneThroughIndexModifiesFirstInScanOrder is the update twin: a
// multi: false update lands on the document a collection scan would reach
// first, not on the first entry of the key.
func TestUpdateOneThroughIndexModifiesFirstInScanOrder(t *testing.T) {
	c := NewCollection("t")
	if _, err := c.EnsureIndexDoc(bson.D("g", 1), false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "g", 1))
	}
	for _, g := range []int{2, 1} { // _id 0 leaves g=1 and comes back, last in the key
		if _, err := c.UpdateOne(bson.D(bson.IDKey, 0), bson.D("$set", bson.D("g", g))); err != nil {
			t.Fatal(err)
		}
	}
	if docs, plan, _ := c.FindWithPlan(bson.D("g", 1), FindOptions{}); plan.IndexUsed != "g_1" || docs[0].ID() == int64(0) {
		t.Fatalf("set-up: index order should not start with _id 0: %v, plan %s", docs, plan)
	}
	if res, err := c.UpdateOne(bson.D("g", 1), bson.D("$set", bson.D("hit", true))); err != nil || res.Modified != 1 {
		t.Fatalf("update one: %+v, %v", res, err)
	}
	if docs, _ := c.FindAll(bson.D("hit", true)); len(docs) != 1 || docs[0].ID() != int64(0) {
		t.Fatalf("update one modified %v, want _id 0", docs)
	}
}

// TestUpdateRefusedByUniqueIndexChangesNothing: when a unique index refuses
// an update's new key, the stored document, the refusing index and the
// indexes maintained before it all stay as they were.
func TestUpdateRefusedByUniqueIndexChangesNothing(t *testing.T) {
	c := NewCollection("t")
	// Name order is maintenance order: "a_1" moves before "u_1" refuses.
	for _, spec := range []*bson.Doc{bson.D("a", 1), bson.D("u", 1)} {
		if _, err := c.EnsureIndexDoc(spec, spec.Has("u")); err != nil {
			t.Fatal(err)
		}
	}
	_, _ = c.Insert(bson.D(bson.IDKey, 1, "a", 1, "u", "x"))
	_, _ = c.Insert(bson.D(bson.IDKey, 2, "a", 2, "u", "y"))
	size := c.DataSize()
	res, err := c.UpdateOne(bson.D(bson.IDKey, 2), bson.D("$set", bson.D("a", 20, "u", "x")))
	var dup *index.ErrDuplicateKey
	if !errors.As(err, &dup) || res.Modified != 0 {
		t.Fatalf("update onto a taken unique key: %+v, %v", res, err)
	}
	if d := c.FindID(2); !d.Equal(bson.D(bson.IDKey, 2, "a", 2, "u", "y")) || c.DataSize() != size {
		t.Fatalf("refused update changed the document: %s", d)
	}
	for _, f := range []*bson.Doc{bson.D("a", 2), bson.D("u", "y")} {
		docs, plan, err := c.FindWithPlan(f, FindOptions{})
		if err != nil || plan.IndexUsed == "" || len(docs) != 1 || docs[0].ID() != int64(2) {
			t.Fatalf("find %s after the refused update: %v, plan %s, %v", f, docs, plan, err)
		}
	}
	if docs, _ := c.FindAll(bson.D("a", 20)); len(docs) != 0 {
		t.Fatalf("index a_1 kept the refused update's key: %v", docs)
	}
}

// TestReplaceContents: the rows replace the old documents and are not
// written: a row with an _id is stored as it is, one without is stored as a
// new document whose _id leads, and the row keeps no _id.
func TestReplaceContents(t *testing.T) {
	c := NewCollection("out")
	_, _ = c.Insert(bson.D(bson.IDKey, 1, "old", true))
	rows := []*bson.Doc{
		bson.D(bson.IDKey, 10, "new", true),
		bson.D(bson.IDKey, 11, "new", true),
		bson.D("new", "no id"),
	}
	if err := c.ReplaceContents(rows); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 3 || c.FindID(1) != nil || c.FindID(10) != rows[0] {
		t.Fatalf("ReplaceContents state wrong: count=%d", c.Count())
	}
	if rows[2].Has(bson.IDKey) {
		t.Fatalf("the row without an _id was given one: %s", rows[2])
	}
	docs, err := c.FindAll(bson.D("new", "no id"))
	if err != nil || len(docs) != 1 || docs[0].Keys()[0] != bson.IDKey || docs[0].Len() != 2 {
		t.Fatalf("the row without an _id is stored as %v, %v", docs, err)
	}
}

func TestEnsureIndexBackfillsAndIsIdempotent(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 10; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "f", i))
	}
	ix1, err := c.EnsureIndexDoc(bson.D("f", 1), false)
	if err != nil {
		t.Fatal(err)
	}
	if ix1.Len() != 10 {
		t.Fatalf("backfilled index has %d entries", ix1.Len())
	}
	ix2, _ := c.EnsureIndexDoc(bson.D("f", 1), false)
	if ix1 != ix2 {
		t.Fatalf("EnsureIndex should be idempotent")
	}
	if len(c.Indexes()) != 1 || c.IndexNames()[0] != "f_1" {
		t.Fatalf("Indexes = %v", c.IndexNames())
	}
	if c.Index("f_1") == nil || c.Index("nope") != nil {
		t.Fatalf("Index lookup broken")
	}
	if !c.DropIndex("f_1") || c.DropIndex("f_1") {
		t.Fatalf("DropIndex misbehaves")
	}
	// {_id: 1} is the index the collection was born with; it cannot be
	// dropped and is not listed.
	idIx, err := c.EnsureIndexDoc(bson.D(bson.IDKey, 1), false)
	if err != nil || idIx != c.Index(idIndexName) || idIx.Len() != 10 || !idIx.Unique() {
		t.Fatalf("EnsureIndex({_id: 1}) = %v, %v; want the _id_ index", idIx, err)
	}
	if c.DropIndex(idIndexName) || c.FindID(3) == nil {
		t.Fatalf("DropIndex(%q) must be refused", idIndexName)
	}
	if len(c.Indexes()) != 0 || c.Stats().IndexCount != 0 || c.Stats().IndexSizeBytes != 0 {
		t.Fatalf("_id_ is listed: %v, stats %+v", c.IndexNames(), c.Stats())
	}
	// Unique index build fails when duplicates already exist.
	_, _ = c.Insert(bson.D(bson.IDKey, 100, "f", 1))
	if _, err := c.EnsureIndexDoc(bson.D("f", 1), true); err == nil {
		t.Fatalf("unique index over duplicates should fail")
	}
	if _, err := c.EnsureIndexDoc(bson.D("f", 7), false); err == nil {
		t.Fatalf("bad spec should fail")
	}
}

func TestUniqueIndexBlocksInsert(t *testing.T) {
	c := NewCollection("t")
	if _, err := c.EnsureIndexDoc(bson.D("email", 1), true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(bson.D(bson.IDKey, 1, "email", "x@y.z")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(bson.D(bson.IDKey, 2, "email", "x@y.z")); err == nil {
		t.Fatalf("duplicate key insert should fail")
	}
	// The failed insert must not leave the document behind.
	if c.Count() != 1 {
		t.Fatalf("Count = %d", c.Count())
	}
	if c.FindID(2) != nil {
		t.Fatalf("failed insert left document behind")
	}
}

func TestStatsAndWorkingSet(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 10; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "v", strings.Repeat("a", 100)))
	}
	_, _ = c.EnsureIndexDoc(bson.D("v", 1), false)
	st := c.Stats()
	if st.Count != 10 || st.DataSizeBytes <= 0 || st.AvgObjSizeBytes <= 0 || st.IndexCount != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.IndexSizeBytes <= 0 {
		t.Fatalf("IndexSizeBytes = %d", st.IndexSizeBytes)
	}
	if c.WorkingSetBytes() != st.DataSizeBytes+st.IndexSizeBytes {
		t.Fatalf("WorkingSetBytes mismatch")
	}
	if err := c.ReplaceContents(nil); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 0 || c.DataSize() != 0 || len(c.Indexes()) != 0 {
		t.Fatalf("an empty replacement left state behind")
	}
}

func TestCursor(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 3; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i))
	}
	cur, err := c.FindCursor(nil, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for cur.HasNext() {
		if cur.Next() == nil {
			t.Fatalf("nil doc from cursor")
		}
		seen++
	}
	if seen != 3 || cur.HasNext() {
		t.Fatalf("cursor visited %d, HasNext=%v after drain", seen, cur.HasNext())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Next on exhausted cursor should panic")
		}
	}()
	cur.Next()
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 100; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "v", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(off int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, _ = c.Insert(bson.D(bson.IDKey, 1000+off*100+i, "v", i))
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.FindAll(bson.D("v", bson.D("$lt", 50))); err != nil {
					t.Errorf("FindAll: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Count() != 300 {
		t.Fatalf("Count = %d", c.Count())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	c := NewCollection("src")
	for i := 0; i < 500; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "payload", strings.Repeat("p", i%40), "n", i))
	}
	var buf bytes.Buffer
	snap := c.Snapshot()
	err := snap.WriteData(&buf)
	snap.Release()
	if err != nil {
		t.Fatalf("WriteData: %v", err)
	}
	restored := NewCollection("dst")
	if err := restored.ReadSnapshot(&buf); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if restored.Count() != c.Count() {
		t.Fatalf("restored %d docs, want %d", restored.Count(), c.Count())
	}
	for i := 0; i < 500; i++ {
		a, b := c.FindID(i), restored.FindID(i)
		if a == nil || b == nil || !a.Equal(b) {
			t.Fatalf("doc %d mismatch: %s vs %s", i, a, b)
		}
	}
	// Corrupt header errors.
	bad := NewCollection("bad")
	if err := bad.ReadSnapshot(strings.NewReader("XXXX")); err == nil {
		t.Fatalf("bad magic should error")
	}
	if err := bad.ReadSnapshot(strings.NewReader("")); err == nil {
		t.Fatalf("empty snapshot should error")
	}
	if err := bad.ReadSnapshot(strings.NewReader("DSC1\x01")); err == nil {
		t.Fatalf("truncated count should error")
	}
}

func TestIndexChoicePrefersPointOverRange(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 200; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "a", i%10, "b", i))
	}
	_, _ = c.EnsureIndexDoc(bson.D("a", 1), false)
	_, _ = c.EnsureIndexDoc(bson.D("b", 1), false)
	// A point constraint on "a" and a range on "b": the planner prefers the
	// point constraint when prefixes tie.
	_, plan, err := c.FindWithPlan(bson.D("a", 3, "b", bson.D("$gte", 0)), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.IndexUsed != "a_1" {
		t.Fatalf("planner chose %q, want a_1", plan.IndexUsed)
	}
	// Compound index with a longer matched prefix wins over single field.
	_, _ = c.EnsureIndexDoc(bson.D("a", 1, "b", 1), false)
	_, plan, _ = c.FindWithPlan(bson.D("a", 3, "b", 17), FindOptions{})
	if plan.IndexUsed != "a_1_b_1" {
		t.Fatalf("planner chose %q, want a_1_b_1", plan.IndexUsed)
	}
}

// TestBareIDFindFastPathWithoutSecondaryIndexes pins _id_ being an index like
// any other: on a collection with no user-created index, every filter that
// constrains _id — equality, $in, a range, _id beside another field — is an
// index scan of _id_ that examines only what it returns, at the current
// version and at a version pinned before a compaction renumbered the records.
func TestBareIDFindFastPathWithoutSecondaryIndexes(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 100; i++ {
		if _, err := c.Insert(bson.D(bson.IDKey, i, "a", i)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name     string
		filter   *bson.Doc
		ids      []int64
		examined int
	}{
		{"equality", bson.D(bson.IDKey, 42), []int64{42}, 1},
		{"miss", bson.D(bson.IDKey, 4242), nil, 0},
		{"in", bson.D(bson.IDKey, bson.D("$in", bson.A(7, 4242, 3, 7))), []int64{7, 3}, 2},
		{"range", bson.D(bson.IDKey, bson.D("$gte", 98)), []int64{98, 99}, 2},
		{"bounded range", bson.D(bson.IDKey, bson.D("$gt", 10, "$lt", 14)), []int64{11, 12, 13}, 3},
		{"with another field", bson.D(bson.IDKey, 42, "a", 42), []int64{42}, 1},
		{"refuted by another field", bson.D(bson.IDKey, 42, "a", 41), nil, 1},
	}
	check := func(s *Snapshot) {
		t.Helper()
		at := s.Version()
		for _, tc := range cases {
			docs, plan, err := findAt(s, tc.filter, FindOptions{})
			if err != nil {
				t.Fatalf("%s at %d: %v", tc.name, at, err)
			}
			var ids []int64
			for _, d := range docs {
				id, _ := d.Get(bson.IDKey)
				ids = append(ids, id.(int64))
			}
			if !slices.Equal(ids, tc.ids) {
				t.Errorf("%s at %d: ids %v, want %v", tc.name, at, ids, tc.ids)
			}
			if plan.IndexUsed != idIndexName || plan.DocsExamined != tc.examined {
				t.Errorf("%s at %d: via %q examining %d, want %q examining %d",
					tc.name, at, plan.IndexUsed, plan.DocsExamined, idIndexName, tc.examined)
			}
		}
	}
	// Pin this version, then delete until the collection compacts: the pinned
	// version keeps its pages and its frozen _id_ tree in the old numbering.
	pinned := c.Snapshot()
	defer pinned.Release()
	check(pinned)
	if n, err := c.Delete(bson.D(bson.IDKey, bson.D("$gte", 20, "$lt", 90)), true); err != nil || n != 70 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	if es := c.EngineStats(); es.Pages != 1 || c.Count() != 30 {
		t.Fatalf("after the deletes: %d pages, %d documents; want a compacted page of 30", es.Pages, c.Count())
	}
	check(pinned)

	// Deleting an id and inserting it again moves it to a new position; the
	// tree follows.
	if ok, err := c.DeleteID(7); err != nil || !ok {
		t.Fatalf("DeleteID(7) = %v, %v", ok, err)
	}
	if c.FindID(7) != nil {
		t.Fatal("FindID(7) found the deleted document")
	}
	if _, err := c.Insert(bson.D(bson.IDKey, 7, "a", 999)); err != nil {
		t.Fatal(err)
	}
	docs, plan, err := c.FindWithPlan(bson.D(bson.IDKey, 7), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || plan.IndexUsed != idIndexName || plan.DocsExamined != 1 {
		t.Fatalf("reinsert: %d docs via %q examining %d, want 1 via %q examining 1",
			len(docs), plan.IndexUsed, plan.DocsExamined, idIndexName)
	}
	if a, _ := docs[0].Get("a"); a != int64(999) {
		t.Fatalf("reinserted doc a = %v, want 999", a)
	}
	check(pinned)
}

func TestIndexPlannerFallsBackToCollScanWithoutConstraints(t *testing.T) {
	c := NewCollection("t")
	for i := 0; i < 10; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "a", i))
	}
	_, _ = c.EnsureIndexDoc(bson.D("a", 1), false)
	// $or-only filters provide no conjunctive constraint for the planner.
	_, plan, err := c.FindWithPlan(bson.D("$or", bson.A(bson.D("a", 1), bson.D("a", 2))), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.IndexUsed != "" {
		t.Fatalf("expected COLLSCAN, got %q", plan.IndexUsed)
	}
	// A filter on an unindexed field also falls back.
	_, plan, _ = c.FindWithPlan(bson.D("zz", 1), FindOptions{})
	if plan.IndexUsed != "" {
		t.Fatalf("expected COLLSCAN, got %q", plan.IndexUsed)
	}
}

// TestFindIndexVsCollscanEquivalenceProperty cross-checks that index-assisted
// execution returns exactly the same documents as a forced collection scan.
func TestFindIndexVsCollscanEquivalenceProperty(t *testing.T) {
	c := NewCollection("t")
	n := 500
	for i := 0; i < n; i++ {
		_, _ = c.Insert(bson.D(bson.IDKey, i, "cat", i%7, "price", float64(i%50)/2))
	}
	indexed := NewCollection("t2")
	for i := 0; i < n; i++ {
		_, _ = indexed.Insert(bson.D(bson.IDKey, i, "cat", i%7, "price", float64(i%50)/2))
	}
	_, _ = indexed.EnsureIndexDoc(bson.D("cat", 1), false)
	_, _ = indexed.EnsureIndexDoc(bson.D("price", 1), false)

	filters := []*bson.Doc{
		bson.D("cat", 3),
		bson.D("cat", bson.D("$in", bson.A(1, 5))),
		bson.D("price", bson.D("$gte", 5.0, "$lt", 10.0)),
		bson.D("cat", 2, "price", bson.D("$lt", 8.0)),
		bson.D("cat", bson.D("$gte", 5)),
	}
	sortByID := query.MustParseSort(bson.D(bson.IDKey, 1))
	for _, f := range filters {
		plain, err := c.Find(f, FindOptions{Sort: sortByID})
		if err != nil {
			t.Fatal(err)
		}
		viaIndex, plan, err := indexed.FindWithPlan(f, FindOptions{Sort: sortByID})
		if err != nil {
			t.Fatal(err)
		}
		if plan.IndexUsed == "" {
			t.Fatalf("filter %s did not use an index", f)
		}
		if len(plain) != len(viaIndex) {
			t.Fatalf("filter %s: collscan %d docs, index %d docs", f, len(plain), len(viaIndex))
		}
		for i := range plain {
			if bson.Compare(plain[i].ID(), viaIndex[i].ID()) != 0 {
				t.Fatalf("filter %s: result %d differs", f, i)
			}
		}
	}
}

// TestLargeIntegerIDsStayApart stores the _ids 2^53 and 2^53+1, one float64
// apart from nothing: both insert, each is found by its own _id and by an
// equality filter, and a duplicate of either is refused.
func TestLargeIntegerIDsStayApart(t *testing.T) {
	const two53 = int64(1) << 53
	c := NewCollection("big")
	for _, id := range []int64{two53, two53 + 1} {
		if _, err := c.Insert(bson.D(bson.IDKey, id, "v", id-two53)); err != nil {
			t.Fatalf("inserting _id %d: %v", id, err)
		}
	}
	for _, id := range []int64{two53, two53 + 1} {
		d := c.FindID(id)
		if d == nil {
			t.Fatalf("FindID(%d) found nothing", id)
		}
		if v, _ := d.Get("v"); v != id-two53 {
			t.Fatalf("FindID(%d) found %s", id, d.ToJSON())
		}
		docs, err := c.Find(bson.D(bson.IDKey, id), FindOptions{})
		if err != nil || len(docs) != 1 {
			t.Fatalf("Find {_id: %d}: %d documents, %v", id, len(docs), err)
		}
		var dup *ErrDuplicateID
		if _, err := c.Insert(bson.D(bson.IDKey, id)); !errors.As(err, &dup) {
			t.Fatalf("a second _id %d: %v, want a duplicate _id", id, err)
		}
	}
	if n := c.Count(); n != 2 {
		t.Fatalf("%d documents, want 2", n)
	}
}
