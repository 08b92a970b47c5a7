package storage

import (
	"sort"

	"docstore/internal/bson"
	"docstore/internal/query"
)

// UpdateResult reports what an update touched.
type UpdateResult struct {
	Matched  int
	Modified int
	// UpsertedID is non-nil when an upsert inserted a new document.
	UpsertedID any
}

// Update applies an update specification: the four-parameter form (query,
// update, upsert, multi) used throughout the thesis' algorithms. It is a
// thin wrapper over BulkWrite — the engine has exactly one mutation code
// path for journaling, COW page accounting and write-concern threading.
func (c *Collection) Update(spec query.UpdateSpec) (UpdateResult, error) {
	res := c.BulkWrite([]WriteOp{UpdateWriteOp(spec)}, BulkOptions{Ordered: true})
	ur := UpdateResult{Matched: res.Matched, Modified: res.Modified}
	if len(res.UpsertedIDs) > 0 {
		ur.UpsertedID = res.UpsertedIDs[0]
	}
	return ur, res.FirstError()
}

// updateLocked executes a pre-compiled update under the caller's write lock;
// it is the single implementation behind every update entry point (all of
// which funnel through BulkWrite).
//
// MVCC discipline: a modified document is never mutated in place — the
// update applies to a clone, which is then installed into the privately
// owned page slot. Readers pinned to older versions keep observing the
// pre-update document through their own frozen pages. Only the touched
// pages are copied (ownSlotLocked), not the whole record store.
func (c *Collection) updateLocked(spec query.UpdateSpec, matcher *query.Matcher) (UpdateResult, error) {
	var res UpdateResult

	// Narrow the candidate set through an index when one matches the query,
	// exactly as Find does; the denormalization algorithm sends one
	// multi-update per referenced dimension key (in bulk) and relies on this.
	// The error is structurally impossible here (updates carry no hint).
	positions, _, _ := c.planLocked(spec.Query, FindOptions{})
	if positions == nil {
		positions = c.allPositionsLocked()
	}
	for _, i := range positions {
		r := c.writerRecord(i)
		if r == nil || r.deleted || !matcher.Matches(r.doc) {
			continue
		}
		res.Matched++
		updated := r.doc.Clone()
		changed, err := query.ApplyUpdate(updated, spec.Update)
		if err != nil {
			return res, err
		}
		if changed {
			newSize := bson.EncodedSize(updated)
			if newSize > bson.MaxDocumentSize {
				// Nothing was installed; the stored document is untouched.
				return res, &ErrDocumentTooLarge{Size: newSize}
			}
			// Indexes first: the document keeps its position, so its entries
			// move only where the indexed fields changed. A unique index that
			// refuses the new keys fails the update before anything is
			// installed, and the indexes already moved are moved back, so the
			// trees and the stored document still agree.
			for j, e := range c.indexes {
				if err := e.ix.Replace(r.doc, updated, i); err != nil {
					for _, moved := range c.indexes[:j] {
						// Cannot fail: it restores keys this loop just vacated.
						_ = moved.ix.Replace(updated, r.doc, i)
					}
					return res, err
				}
			}
			// First rewrite of this page in the batch copies it; the copy
			// relocates the slot, so re-derive the pointer.
			r = c.ownSlotLocked(i)
			r.doc = updated
			c.dataSize += newSize - r.size
			r.size = newSize
			res.Modified++
		}
		if !spec.Multi {
			return res, nil
		}
	}

	if res.Matched == 0 && spec.Upsert {
		doc := buildUpsertDocument(spec)
		id, err := c.insertLocked(doc)
		if err != nil {
			return res, err
		}
		res.UpsertedID = id
	}
	return res, nil
}

// allPositionsLocked lists every record position in order: the candidates of
// a write no index narrows.
func (c *Collection) allPositionsLocked() []int {
	positions := make([]int, c.length)
	for i := range positions {
		positions[i] = i
	}
	return positions
}

// buildUpsertDocument constructs the document inserted by an upsert that
// matched nothing: the equality fields of the query plus the update applied
// to it (for operator updates) or the update document itself (replacement).
func buildUpsertDocument(spec query.UpdateSpec) *bson.Doc {
	base := bson.NewDoc(4)
	if spec.Query != nil {
		for field, cons := range query.FieldConstraints(spec.Query) {
			if cons.IsPoint() && len(cons.Points) == 1 {
				_ = base.SetPath(field, cons.Points[0])
			}
		}
	}
	if !query.IsOperatorUpdate(spec.Update) {
		doc := spec.Update.Clone()
		if id, ok := base.Get(bson.IDKey); ok && !doc.Has(bson.IDKey) {
			doc.Set(bson.IDKey, id)
		}
		return doc
	}
	_, _ = query.ApplyUpdate(base, spec.Update)
	return base
}

// UpdateMany is shorthand for a multi-document operator update.
func (c *Collection) UpdateMany(filter, update *bson.Doc) (UpdateResult, error) {
	return c.Update(query.UpdateSpec{Query: filter, Update: update, Multi: true})
}

// UpdateOne is shorthand for a single-document update.
func (c *Collection) UpdateOne(filter, update *bson.Doc) (UpdateResult, error) {
	return c.Update(query.UpdateSpec{Query: filter, Update: update})
}

// ReplaceContents drops every document and inserts the given ones; it is the
// semantics of the aggregation $out stage writing its result collection. The
// batch runs through the bulk-write engine under one lock acquisition.
func (c *Collection) ReplaceContents(docs []*bson.Doc) error {
	c.Drop()
	res := c.BulkWrite(InsertOps(docs), BulkOptions{Ordered: true})
	return res.FirstError()
}

// Delete removes documents matching the filter. When multi is false only the
// first match is removed. It returns the number of documents removed. Like
// Update, it is a thin wrapper over BulkWrite.
func (c *Collection) Delete(filter *bson.Doc, multi bool) (int, error) {
	res := c.BulkWrite([]WriteOp{DeleteWriteOp(filter, multi)}, BulkOptions{Ordered: true})
	return res.Deleted, res.FirstError()
}

// deleteLocked removes matching documents under the caller's write lock. It
// never compacts; callers decide when to pay for compaction so a bulk of
// deletes triggers at most one rewrite. Tombstoning rewrites record slots,
// so the first removal in a page takes the copy-on-write path for that page;
// pinned readers keep seeing the documents through their own frozen pages.
// The tombstone drops its document reference — once no pinned version covers
// the page, the document's memory is gone, and a fully tombstoned page is
// nilled out of the spine by the incremental GC.
//
// The candidates come through the planner, so Delete({_id: x}) and a chunk
// migration's range delete cost what they remove, not the collection. They
// are visited in ascending position order whatever the index order was, so a
// multi: false delete removes the document a collection scan would have
// found first: which document goes does not depend on how the trees were
// built, and replay and secondaries remove the same one.
func (c *Collection) deleteLocked(filter *bson.Doc, matcher *query.Matcher, multi bool) int {
	removed := 0
	// As in updateLocked, the error is structurally impossible (no hint).
	positions, _, _ := c.planLocked(filter, FindOptions{})
	if positions == nil {
		positions = c.allPositionsLocked()
	} else {
		sort.Ints(positions)
	}
	for _, i := range positions {
		r := c.writerRecord(i)
		if r == nil || r.deleted || !matcher.Matches(r.doc) {
			continue
		}
		doc := r.doc
		r = c.ownSlotLocked(i)
		delete(c.byID, r.idKey)
		for _, e := range c.indexes {
			e.ix.Remove(doc, i)
		}
		c.count--
		c.dataSize -= r.size
		c.tombs++
		removed++
		r.deleted = true
		r.doc = nil
		c.pages[i>>pageShift].tombs++
		if !multi {
			break
		}
	}
	return removed
}

// maybeCompactLocked rewrites the record store when tombstones dominate it.
func (c *Collection) maybeCompactLocked() {
	if c.tombs > c.length/2 && c.tombs > 64 {
		c.compactLocked()
	}
}

// DeleteID removes the document with the given _id.
func (c *Collection) DeleteID(id any) (bool, error) {
	n, err := c.Delete(bson.D(bson.IDKey, id), false)
	return n > 0, err
}
