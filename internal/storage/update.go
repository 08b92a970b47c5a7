package storage

import (
	"errors"
	"slices"
	"sort"

	"docstore/internal/bson"
	"docstore/internal/index"
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
	return res.UpdateResult()
}

// updateLocked executes a pre-compiled update under the caller's write lock;
// it is the single implementation behind every update entry point (all of
// which funnel through BulkWrite). upsertID is the _id an upsert that matches
// nothing gives the document it inserts when neither the filter nor a
// replacement names one (nil: a fresh ObjectID).
//
// MVCC discipline: a stored document is never written. The update applies to
// a shallow copy of it (bson.Doc.ShallowClone), which is then installed into
// the privately owned page slot: the copy's field array is new, the nested
// documents on the paths the update writes are copied as it writes them
// (bson.Path.Set), and every other value is shared with the stored document,
// which is frozen. The op's update document is deep-cloned once, at the first
// match, and its values are stored by reference in every document the op
// writes: a multi-update that embeds one dimension document leaves every
// matched fact row holding the same copy. Readers pinned to older versions
// keep observing the pre-update document through their own frozen pages.
// Only the touched pages are copied (ownSlotLocked), not the whole record
// store.
//
// A row costs what the update writes to it. ApplyUpdate reports the
// top-level fields it wrote; the new size is the old one adjusted by those
// fields' elements and only their new values are depth-checked
// (updatedSize), and only the indexes whose keys are read from one of them
// are maintained. The dimension document a Figure 4.7 op embeds into every
// row it matches is sized once per op (query.SizeMemo).
func (c *Collection) updateLocked(spec query.UpdateSpec, upsertID any, matcher *query.Matcher) (UpdateResult, error) {
	var res UpdateResult
	var err error
	var update *bson.Doc // spec.Update, cloned at the first use
	written := &c.written
	var memo query.SizeMemo
	c.eachMatchLocked(matcher, func(i int, r *record) bool {
		res.Matched++
		if update == nil {
			update = spec.Update.Clone()
		}
		updated := r.doc.ShallowClone()
		written.Reset()
		var changed bool
		if changed, err = query.ApplyUpdate(updated, update, written); err != nil {
			return false
		}
		if changed {
			var newSize int
			if newSize, err = updatedSize(r, updated, written, &memo); err != nil {
				// Nothing was installed; the stored document is untouched.
				return false
			}
			// Indexes first: the document keeps its position, so its entries
			// move only where the indexed fields changed, and an index over
			// no field the update wrote is not consulted at all. A unique
			// index that refuses the new keys fails the update before
			// anything is installed, and the indexes already moved are moved
			// back, so the trees and the stored document still agree.
			for j, e := range c.indexes {
				if !e.ix.MayChange(written) {
					continue
				}
				if err = e.ix.Replace(r.doc, updated, i); err != nil {
					for _, moved := range c.indexes[:j] {
						if moved.ix.MayChange(written) {
							// Cannot fail: it restores keys this loop just vacated.
							_ = moved.ix.Replace(updated, r.doc, i)
						}
					}
					return false
				}
			}
			// First rewrite of this page in the batch copies it; the copy
			// relocates the slot, so re-derive the pointer.
			r = c.ownSlotLocked(i)
			r.doc = updated
			c.dataSize += newSize - int(r.size)
			r.size = int32(newSize)
			res.Modified++
		}
		return spec.Multi
	})
	if err != nil {
		return res, err
	}

	if res.Matched == 0 && spec.Upsert {
		doc := buildUpsertDocument(spec.Query, spec.Update.Clone(), upsertID)
		id, err := c.insertLocked(doc)
		if err != nil {
			return res, err
		}
		res.UpsertedID = id
	}
	return res, nil
}

// updatedSize is storedSize of updated, the document r stores after the
// update that reported written, reached by difference when the update wrote
// only some fields (query.Written.Resize): the fields it did not write are
// r's, whose size is r.size and which passed the depth check when stored.
func updatedSize(r *record, updated *bson.Doc, written *query.Written, memo *query.SizeMemo) (int, error) {
	if written.All {
		return storedSize(updated)
	}
	size, within := written.Resize(r.doc, updated, int(r.size), bson.MaxDocumentDepth, memo)
	if size > bson.MaxDocumentSize {
		return 0, &ErrDocumentTooLarge{Size: size}
	}
	if !within {
		return 0, ErrDocumentTooDeep
	}
	return size, nil
}

// eachMatchLocked calls fn with the position and record of every live
// document the filter matches, until fn returns false: the one candidate walk
// behind updates and deletes. An index narrows the candidates when one
// matches the filter, exactly as in Find — Delete({_id: x}), a chunk
// migration's range delete and the denormalization algorithm's one
// multi-update per referenced dimension key all cost what they touch, not
// the collection. Whatever order the index gave them, they are visited in
// ascending position order, so a multi: false write lands on the document a
// collection scan would have found first: which document that is does not
// depend on how the trees were built, and replay and secondaries pick the
// same one. The plan is Find's own (planEnv.plan), read from the writer's
// trees: the candidates may have been narrowed by several indexes and each
// is checked against the residual only. fn may rewrite the record it is
// handed (through ownSlotLocked) and move its index entries, but must not
// insert or compact.
func (c *Collection) eachMatchLocked(matcher *query.Matcher, fn func(pos int, r *record) bool) {
	// The error is structurally impossible here (writes carry no hint).
	acc, _ := planEnv{coll: c.name, indexes: c.indexes}.plan(matcher, FindOptions{})
	n := c.length // nothing narrows: every position, in place
	if acc.index != "" {
		if acc.shared {
			// The writer's own posting list, which fn's index maintenance
			// may splice while this loop reads it.
			acc.positions = slices.Clone(acc.positions)
		}
		slices.Sort(acc.positions)
		n = len(acc.positions)
	}
	for k := 0; k < n; k++ {
		pos := k
		if acc.index != "" {
			pos = int(acc.positions[k])
		}
		r := c.writerRecord(pos)
		if r.doc == nil || !acc.residual.Matches(r.doc) {
			continue
		}
		if !fn(pos, r) {
			return
		}
	}
}

// buildUpsertDocument constructs the document inserted by an upsert that
// matched nothing: the equality fields of the query plus the update applied
// to it (for operator updates) or the update document itself (replacement).
// update is the op's own copy, which the document may keep; the query's
// values are copied. A document left without an _id gets id, when it is not
// nil.
func buildUpsertDocument(filter, update *bson.Doc, id any) *bson.Doc {
	base := bson.NewDoc(4)
	if filter != nil {
		constraints := query.FieldConstraints(filter)
		fields := make([]string, 0, len(constraints))
		for field := range constraints {
			fields = append(fields, field)
		}
		// In name order: map order would give the stored document a different
		// field order from one run, replay or server to the next.
		sort.Strings(fields)
		for _, field := range fields {
			if cons := constraints[field]; cons.IsPoint() && len(cons.Points) == 1 {
				_ = base.SetPath(field, bson.CloneValue(cons.Points[0]))
			}
		}
	}
	doc := base
	if !query.IsOperatorUpdate(update) {
		doc = update
		if id, ok := base.Get(bson.IDKey); ok && !doc.Has(bson.IDKey) {
			doc.Set(bson.IDKey, id)
		}
	} else {
		_, _ = query.ApplyUpdate(base, update, nil)
	}
	if id != nil {
		ensureID(doc, id)
	}
	return doc
}

// UpdateMany is shorthand for a multi-document operator update.
func (c *Collection) UpdateMany(filter, update *bson.Doc) (UpdateResult, error) {
	return c.Update(query.UpdateSpec{Query: filter, Update: update, Multi: true})
}

// UpdateOne is shorthand for a single-document update.
func (c *Collection) UpdateOne(filter, update *bson.Doc) (UpdateResult, error) {
	return c.Update(query.UpdateSpec{Query: filter, Update: update})
}

// ReplaceContents drops every document and stores the given rows in their
// place; it is the semantics of the aggregation $out stage writing its result
// collection. Every row is checked first — depth, size, an array _id, a
// duplicate _id against an _id_ index built in the same pass — so a refused
// result leaves the target, and its journal, as they were. The rows are not
// written: a row with an _id is stored as it is, shared with the caller under
// the frozen-document rule (see Insert), and one without is stored as a new
// field array, a fresh ObjectID first, over the row's values. The journal
// receives one record, the wipe and the new documents together, before
// anything changes in memory: a journal that refuses it leaves the target as
// it was and publishes nothing, and recovery replays the record whole or not
// at all. The wipe, the new records and their _id_ are then published as one
// version: a reader sees the old contents or the new, never the empty
// collection between them, and two concurrent calls leave one caller's
// documents, not a mix.
func (c *Collection) ReplaceContents(rows []*bson.Doc) error {
	docs, sizes, ids, err := buildContents(rows)
	if err != nil {
		return err
	}
	c.mu.Lock()
	logged, err := c.logRecordLocked(func(j Journal) (CommitWaiter, error) { return j.LogReplace(docs) })
	if err != nil {
		c.mu.Unlock()
		return err
	}
	c.clearLocked()
	c.reserveLocked(len(docs))
	for i, doc := range docs {
		*c.appendSlotLocked() = record{doc: doc, size: int32(sizes[i])}
		c.dataSize += sizes[i]
	}
	c.count = len(docs)
	c.adoptIndexLocked(ids)
	c.indexes[0].ix = ids
	c.publishLocked()
	c.mu.Unlock()
	return waitCommit(logged, false)
}

// buildContents checks rows, in order, as the documents ReplaceContents
// stores, and returns those documents, their sizes and the _id_ index over
// them (positions are row indices). It writes none of the rows and reports
// the first refusal with the error an insert of that row would get.
func buildContents(rows []*bson.Doc) ([]*bson.Doc, []int, *index.Index, error) {
	docs, sizes := make([]*bson.Doc, len(rows)), make([]int, len(rows))
	ids := index.New(idIndexName, idIndexSpec, true)
	for i, doc := range rows {
		if doc == nil {
			return nil, nil, nil, errNoInsertDoc
		}
		id, ok := doc.Get(bson.IDKey)
		if !ok {
			id = bson.NewObjectID()
			doc = doc.WithID(id)
		}
		size, err := insertedSize(doc, id)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := ids.Insert(doc, i); err != nil {
			var dup *index.ErrDuplicateKey
			if errors.As(err, &dup) {
				return nil, nil, nil, &ErrDuplicateID{ID: id}
			}
			return nil, nil, nil, err
		}
		docs[i], sizes[i] = doc, size
	}
	return docs, sizes, ids, nil
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
// the page, the document's memory is gone; the slot itself goes at the next
// compaction.
func (c *Collection) deleteLocked(matcher *query.Matcher, multi bool) int {
	removed := 0
	c.eachMatchLocked(matcher, func(i int, r *record) bool {
		doc := r.doc
		r = c.ownSlotLocked(i)
		for _, e := range c.indexes {
			e.ix.Remove(doc, i)
		}
		c.count--
		c.dataSize -= int(r.size)
		c.tombs++
		removed++
		*r = record{}
		return multi
	})
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
