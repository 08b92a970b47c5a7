package storage

import (
	"slices"
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
	return res.UpdateResult()
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
	var err error
	c.eachMatchLocked(matcher, func(i int, r *record) bool {
		res.Matched++
		updated := r.doc.Clone()
		var changed bool
		if changed, err = query.ApplyUpdate(updated, spec.Update); err != nil {
			return false
		}
		if changed {
			var newSize int
			if newSize, err = storedSize(updated); err != nil {
				// Nothing was installed; the stored document is untouched.
				return false
			}
			// Indexes first: the document keeps its position, so its entries
			// move only where the indexed fields changed. A unique index that
			// refuses the new keys fails the update before anything is
			// installed, and the indexes already moved are moved back, so the
			// trees and the stored document still agree.
			for j, e := range c.indexes {
				if err = e.ix.Replace(r.doc, updated, i); err != nil {
					for _, moved := range c.indexes[:j] {
						// Cannot fail: it restores keys this loop just vacated.
						_ = moved.ix.Replace(updated, r.doc, i)
					}
					return false
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
		return spec.Multi
	})
	if err != nil {
		return res, err
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
		if r == nil || r.deleted || !acc.residual.Matches(r.doc) {
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
func buildUpsertDocument(spec query.UpdateSpec) *bson.Doc {
	base := bson.NewDoc(4)
	if spec.Query != nil {
		constraints := query.FieldConstraints(spec.Query)
		fields := make([]string, 0, len(constraints))
		for field := range constraints {
			fields = append(fields, field)
		}
		// In name order: map order would give the stored document a different
		// field order from one run, replay or server to the next.
		sort.Strings(fields)
		for _, field := range fields {
			if cons := constraints[field]; cons.IsPoint() && len(cons.Points) == 1 {
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
// wipe and the ordered insert batch happen under one write-lock acquisition
// and become visible as one version: a reader sees the old contents or the
// new, never the empty collection between them, and two concurrent calls
// leave one caller's documents, not a mix. The journal still receives the two
// records a Drop and a BulkWrite would have written, in that order, so
// recovery replays them as it always did; the batch's record is the later of
// the two in one sequential log, so one wait covers both.
func (c *Collection) ReplaceContents(docs []*bson.Doc) error {
	ops := InsertOps(docs)
	if firstTooDeep(ops) >= 0 {
		return ErrDocumentTooDeep // as BulkApply would, but before the wipe
	}
	prep, res, inserts := prepareBulk(ops)
	c.mu.Lock()
	// A journal failure on the wipe is best-effort, as in Drop.
	cleared, _ := c.logClearLocked()
	c.clearLocked()
	var logged CommitWaiter
	var err error
	if len(ops) > 0 {
		if logged, err = c.logLocked(ops, true); err == nil {
			c.applyOpsLocked(ops, prep, inserts, true, &res)
		}
	}
	c.publishLocked()
	c.mu.Unlock()
	last := logged
	if last == nil {
		last = cleared
	}
	if last != nil {
		res.DurabilityErr = last.Wait(false)
	}
	notifyCommit(cleared)
	notifyCommit(logged)
	if err != nil {
		return err
	}
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
func (c *Collection) deleteLocked(matcher *query.Matcher, multi bool) int {
	removed := 0
	c.eachMatchLocked(matcher, func(i int, r *record) bool {
		doc := r.doc
		r = c.ownSlotLocked(i)
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
