package storage

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/query"
)

func TestBulkWriteMixedBatch(t *testing.T) {
	c := NewCollection("c")
	for i := 0; i < 5; i++ {
		if _, err := c.Insert(bson.D(bson.IDKey, i, "v", i)); err != nil {
			t.Fatal(err)
		}
	}
	res := c.BulkWrite([]WriteOp{
		InsertWriteOp(bson.D(bson.IDKey, 10, "v", 10)),
		UpdateWriteOp(query.UpdateSpec{Query: bson.D(bson.IDKey, 0), Update: bson.D("$set", bson.D("v", 100))}),
		DeleteWriteOp(bson.D(bson.IDKey, 1), false),
		UpdateWriteOp(query.UpdateSpec{Query: bson.D(bson.IDKey, 99), Update: bson.D("$set", bson.D("v", 1)), Upsert: true}),
	}, BulkOptions{})
	if res.FirstError() != nil {
		t.Fatalf("unexpected errors: %v", res.Errors)
	}
	if res.Inserted != 1 || res.Matched != 1 || res.Modified != 1 || res.Deleted != 1 || res.Upserted != 1 {
		t.Fatalf("result = %+v", res)
	}
	if res.Attempted != 4 {
		t.Fatalf("attempted = %d", res.Attempted)
	}
	if res.InsertedIDs[0] != int64(10) && res.InsertedIDs[0] != 10 {
		t.Fatalf("InsertedIDs[0] = %v", res.InsertedIDs[0])
	}
	if res.UpsertedIDs[3] == nil {
		t.Fatalf("UpsertedIDs[3] = nil, want upserted id")
	}
	if c.Count() != 6 { // 5 - 1 deleted + 1 inserted + 1 upserted
		t.Fatalf("count = %d", c.Count())
	}
	if d := c.FindID(0); d == nil || d.GetOr("v", nil) != int64(100) {
		t.Fatalf("update not applied: %v", d)
	}
	if c.FindID(1) != nil {
		t.Fatalf("delete not applied")
	}
}

func TestBulkWriteEmptyBatch(t *testing.T) {
	c := NewCollection("c")
	for _, ordered := range []bool{true, false} {
		res := c.BulkWrite(nil, BulkOptions{Ordered: ordered})
		if res.Attempted != 0 || len(res.Errors) != 0 || res.InsertedIDs != nil {
			t.Fatalf("ordered=%v: empty batch result = %+v", ordered, res)
		}
	}
	if c.Count() != 0 {
		t.Fatalf("empty batch changed the collection")
	}
}

// TestBulkWriteDuplicateIDOrderedVsUnordered pins the mid-batch failure
// semantics: ordered stops at the eighth op (the duplicate), unordered
// executes everything else and reports the one failure.
func TestBulkWriteDuplicateIDOrderedVsUnordered(t *testing.T) {
	docs := func() []*bson.Doc {
		out := make([]*bson.Doc, 10)
		for i := range out {
			id := i
			if i == 7 {
				id = 0 // duplicate of the first document
			}
			out[i] = bson.D(bson.IDKey, id, "v", i)
		}
		return out
	}

	ordered := NewCollection("ordered")
	res := ordered.BulkWrite(InsertOps(docs()), BulkOptions{Ordered: true})
	if res.Inserted != 7 || res.Attempted != 8 || len(res.Errors) != 1 {
		t.Fatalf("ordered result = %+v", res)
	}
	if res.Errors[0].Index != 7 {
		t.Fatalf("ordered error index = %d", res.Errors[0].Index)
	}
	var dup *ErrDuplicateID
	if !errors.As(res.Errors[0].Err, &dup) {
		t.Fatalf("ordered error = %v, want ErrDuplicateID", res.Errors[0].Err)
	}
	if ordered.Count() != 7 {
		t.Fatalf("ordered count = %d, ops after the failure must not run", ordered.Count())
	}

	unordered := NewCollection("unordered")
	res = unordered.BulkWrite(InsertOps(docs()), BulkOptions{})
	if res.Inserted != 9 || res.Attempted != 10 || len(res.Errors) != 1 || res.Errors[0].Index != 7 {
		t.Fatalf("unordered result = %+v", res)
	}
	if unordered.Count() != 9 {
		t.Fatalf("unordered count = %d, ops after the failure must still run", unordered.Count())
	}
	// The failed slot stays nil; every other id is reported in order.
	for i, id := range res.InsertedIDs {
		if (id == nil) != (i == 7) {
			t.Fatalf("InsertedIDs[%d] = %v", i, id)
		}
	}
}

// TestInsertManyEquivalentToInsertLoop proves the InsertMany wrapper over
// the bulk engine behaves exactly like the per-document insert loop: same
// ids in document order, same stored state, same stop-at-first-error
// prefix semantics.
func TestInsertManyEquivalentToInsertLoop(t *testing.T) {
	docs := func() []*bson.Doc {
		out := make([]*bson.Doc, 50)
		for i := range out {
			out[i] = bson.D(bson.IDKey, i, "v", i*i)
		}
		return out
	}

	loop := NewCollection("loop")
	var loopIDs []any
	for _, d := range docs() {
		id, err := loop.Insert(d)
		if err != nil {
			t.Fatal(err)
		}
		loopIDs = append(loopIDs, id)
	}
	bulk := NewCollection("bulk")
	bulkIDs, err := bulk.InsertMany(docs())
	if err != nil {
		t.Fatal(err)
	}
	if len(bulkIDs) != len(loopIDs) {
		t.Fatalf("InsertMany returned %d ids, loop %d", len(bulkIDs), len(loopIDs))
	}
	for i := range loopIDs {
		if bson.Compare(bulkIDs[i], loopIDs[i]) != 0 {
			t.Fatalf("id %d differs: %v vs %v", i, bulkIDs[i], loopIDs[i])
		}
	}
	loopDocs, _ := loop.FindAll(nil)
	bulkDocs, _ := bulk.FindAll(nil)
	if len(loopDocs) != len(bulkDocs) {
		t.Fatalf("stored %d vs %d docs", len(bulkDocs), len(loopDocs))
	}
	for i := range loopDocs {
		if string(bson.Marshal(loopDocs[i])) != string(bson.Marshal(bulkDocs[i])) {
			t.Fatalf("doc %d differs between loop and bulk insert", i)
		}
	}

	// Error path: stop at the duplicate, return the prior ids, surface the
	// storage error type unwrapped.
	partial := NewCollection("partial")
	ids, err := partial.InsertMany([]*bson.Doc{
		bson.D(bson.IDKey, 1), bson.D(bson.IDKey, 2), bson.D(bson.IDKey, 1), bson.D(bson.IDKey, 3),
	})
	var dup *ErrDuplicateID
	if err == nil || !errors.As(err, &dup) {
		t.Fatalf("err = %v, want ErrDuplicateID", err)
	}
	if len(ids) != 2 || partial.Count() != 2 {
		t.Fatalf("partial insert: ids=%v count=%d", ids, partial.Count())
	}
}

// TestBulkWriteAmortizedMaintenance checks the batch-level maintenance: the
// record array grows once for the batch and a delete-heavy bulk compacts at
// most once, at the end.
func TestBulkWriteAmortizedMaintenance(t *testing.T) {
	c := NewCollection("c")
	docs := make([]*bson.Doc, 500)
	for i := range docs {
		docs[i] = bson.D(bson.IDKey, i)
	}
	res := c.BulkWrite(InsertOps(docs), BulkOptions{})
	if res.Inserted != 500 {
		t.Fatalf("inserted %d", res.Inserted)
	}
	if got := cap(c.pages) * pageSize; got < 500 {
		t.Fatalf("record capacity %d not reserved", got)
	}
	// A follow-up batch grows geometrically (at least doubling), so repeated
	// InsertMany batches do not copy the whole array once per batch.
	more := make([]*bson.Doc, 100)
	for i := range more {
		more[i] = bson.D(bson.IDKey, 500+i)
	}
	if res := c.BulkWrite(InsertOps(more), BulkOptions{}); res.Inserted != 100 {
		t.Fatalf("second batch inserted %d", res.Inserted)
	}
	if got, want := cap(c.pages)*pageSize, 1000; got < want {
		t.Fatalf("record capacity %d after second reserve, want >= %d (geometric growth)", got, want)
	}

	// Delete 400 of 600 in one bulk: tombstones exceed half the records, so
	// the trailing compaction must have rewritten the array.
	ops := make([]WriteOp, 400)
	for i := range ops {
		ops[i] = DeleteWriteOp(bson.D(bson.IDKey, i), false)
	}
	res = c.BulkWrite(ops, BulkOptions{})
	if res.Deleted != 400 {
		t.Fatalf("deleted %d", res.Deleted)
	}
	c.mu.Lock()
	records, tombs := c.length, c.tombs
	c.mu.Unlock()
	if tombs != 0 || records != 200 {
		t.Fatalf("post-bulk compaction: records=%d tombs=%d", records, tombs)
	}
	if c.Count() != 200 {
		t.Fatalf("count = %d", c.Count())
	}
}

// TestBulkWriteUniqueIndexRollback verifies per-op unique-index failures are
// attributed and do not corrupt index state for later ops.
func TestBulkWriteUniqueIndexAttribution(t *testing.T) {
	c := NewCollection("c")
	if _, err := c.EnsureIndexDoc(bson.D("u", 1), true); err != nil {
		t.Fatal(err)
	}
	res := c.BulkWrite([]WriteOp{
		InsertWriteOp(bson.D(bson.IDKey, 1, "u", "a")),
		InsertWriteOp(bson.D(bson.IDKey, 2, "u", "a")), // unique violation
		InsertWriteOp(bson.D(bson.IDKey, 3, "u", "b")),
	}, BulkOptions{})
	if res.Inserted != 2 || len(res.Errors) != 1 || res.Errors[0].Index != 1 {
		t.Fatalf("result = %+v", res)
	}
	if c.Count() != 2 || c.FindID(2) != nil {
		t.Fatalf("failed op left state behind: count=%d", c.Count())
	}
	docs, err := c.Find(bson.D("u", "b"), FindOptions{})
	if err != nil || len(docs) != 1 {
		t.Fatalf("index lookup after failed op: %d, %v", len(docs), err)
	}
}

// TestBulkWriteRefusesUpdateWithoutUpdateDocument: an update op whose update
// document is nil — an upsert that matches nothing, or an update that matches
// a document — is refused as an insert without a document is, before the
// collection's write mutex is taken, and the next write still goes through.
// Applied, it would dereference the nil document with the mutex held.
func TestBulkWriteRefusesUpdateWithoutUpdateDocument(t *testing.T) {
	c := NewCollection("c")
	if _, err := c.Insert(bson.D(bson.IDKey, 1, "k", 2)); err != nil {
		t.Fatal(err)
	}
	// returns runs a write on its own goroutine and fails the test when it
	// panics or has not returned after a while: blocked on a held mutex.
	returns := func(what string, write func() error) error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("panicked: %v", r)
				}
			}()
			done <- write()
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return: the write mutex is still held", what)
			return nil
		}
	}
	for _, spec := range []query.UpdateSpec{
		{Query: bson.D("k", 1), Upsert: true},
		{Query: bson.D("k", 2)},
	} {
		err := returns(fmt.Sprint("the update of ", spec.Query), func() error {
			_, err := c.Update(spec)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "no update document") {
			t.Errorf("update %v without an update document = %v, want refused", spec.Query, err)
		}
	}
	if err := returns("the insert after the refused updates", func() error {
		_, err := c.Insert(bson.D(bson.IDKey, 2))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.FindID(1); got == nil || got.GetOr("k", nil) != int64(2) {
		t.Fatalf("the matched document became %v", got)
	}
}
