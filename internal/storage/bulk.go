package storage

import (
	"fmt"

	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/trace"
)

// WriteOpKind discriminates the operation a WriteOp carries.
type WriteOpKind int

// Write operation kinds.
const (
	InsertOp WriteOpKind = iota
	UpdateOp
	DeleteOp
)

// String names the kind for diagnostics.
func (k WriteOpKind) String() string {
	switch k {
	case InsertOp:
		return "insert"
	case UpdateOp:
		return "update"
	case DeleteOp:
		return "delete"
	default:
		return fmt.Sprintf("writeOp(%d)", int(k))
	}
}

// WriteOp is one operation of a bulk write: an insert, an update
// specification, or a delete. Exactly the fields for its Kind are read.
type WriteOp struct {
	Kind WriteOpKind
	// Doc is the document to insert (InsertOp). As with Insert, a missing
	// _id is assigned in place.
	Doc *bson.Doc
	// Update is the update specification (UpdateOp).
	Update query.UpdateSpec
	// Filter selects the documents to delete (DeleteOp); Multi removes every
	// match instead of the first.
	Filter *bson.Doc
	Multi  bool
}

// InsertWriteOp builds an insert op.
func InsertWriteOp(doc *bson.Doc) WriteOp { return WriteOp{Kind: InsertOp, Doc: doc} }

// UpdateWriteOp builds an update op.
func UpdateWriteOp(spec query.UpdateSpec) WriteOp { return WriteOp{Kind: UpdateOp, Update: spec} }

// DeleteWriteOp builds a delete op.
func DeleteWriteOp(filter *bson.Doc, multi bool) WriteOp {
	return WriteOp{Kind: DeleteOp, Filter: filter, Multi: multi}
}

// InsertOps wraps a document batch as insert ops, the shape InsertMany and
// ReplaceContents feed to the bulk engine.
func InsertOps(docs []*bson.Doc) []WriteOp {
	ops := make([]WriteOp, len(docs))
	for i, d := range docs {
		ops[i] = InsertWriteOp(d)
	}
	return ops
}

// BulkOptions tunes a bulk write.
type BulkOptions struct {
	// Ordered stops the batch at the first failing operation, guaranteeing
	// every op before the failure executed and none after it did. Unordered
	// attempts every operation and collects all failures.
	Ordered bool
	// Journaled is the writeConcern {j: true} escalation: when a journal is
	// attached, the batch is acknowledged only once its log record is
	// fsynced, even under sync policies that would otherwise acknowledge
	// earlier. Without a journal it has no effect.
	Journaled bool
	// WriteConcern is the full acknowledgement contract. The storage engine
	// itself honours only its Journal flag (equivalent to Journaled); the
	// replication layers read W/Majority/WTimeout to gate acknowledgement on
	// member quorum and surface it through mongos scatter and the wire
	// protocol.
	WriteConcern WriteConcern
	// Trace is the parent span of the request this batch belongs to. Every
	// layer the options pass through (wire, mongos, replset, mongod,
	// storage) attaches its own child spans under it. Nil (the default)
	// disables tracing for the batch — span methods are no-ops on nil.
	Trace *trace.Span
}

// journalAck reports whether the batch must be fsynced before
// acknowledgement, folding the legacy Journaled flag and the write concern's
// j escalation together.
func (o BulkOptions) journalAck() bool {
	return o.Journaled || o.WriteConcern.Journal
}

// BulkError attributes one failure to the operation that caused it.
type BulkError struct {
	// Index is the position of the failing op in the batch.
	Index int
	Err   error
}

func (e BulkError) Error() string { return fmt.Sprintf("bulk op %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error for errors.Is/As.
func (e BulkError) Unwrap() error { return e.Err }

// BulkResult reports what a bulk write did, with per-op error attribution.
type BulkResult struct {
	Inserted int
	Matched  int
	Modified int
	Upserted int
	Deleted  int
	// Attempted is how many ops were executed; ordered batches stop early on
	// failure, so it can be less than the batch size.
	Attempted int
	// InsertedIDs is aligned with the op batch: entry i holds the _id
	// produced by op i when it was a successful insert, nil otherwise. It is
	// nil when the batch contains no inserts.
	InsertedIDs []any
	// UpsertedIDs is aligned the same way for updates that upserted. It is
	// nil when no op could upsert.
	UpsertedIDs []any
	// Errors lists per-op failures in ascending Index order.
	Errors []BulkError
	// DurabilityErr is a batch-level acknowledgement failure: the batch could
	// not be logged (nothing was applied), the log record could not be made
	// durable after apply, or — through the replication layers — the write
	// concern's member quorum was not reached (a *WriteConcernError). It is
	// separate from Errors because it is not attributable to one op.
	DurabilityErr error
	// LastLSN is the journal sequence number of the batch's log record, zero
	// when the collection has no journal attached. The replication layers key
	// their quorum waits on it.
	LastLSN int64
}

// FirstError returns the lowest-index failure, a batch-level durability
// failure when no op failed, or nil when the batch fully succeeded.
func (r *BulkResult) FirstError() error {
	if len(r.Errors) == 0 {
		return r.DurabilityErr
	}
	return r.Errors[0].Err
}

// InsertedID reads a one-op insert batch's result as the scalar Insert entry
// points return it: the id the op produced (nil when it failed) and its error.
func (r *BulkResult) InsertedID() (any, error) {
	var id any
	if len(r.InsertedIDs) > 0 {
		id = r.InsertedIDs[0]
	}
	return id, r.FirstError()
}

// UpdateResult reads a one-op update batch's result as the scalar Update
// entry points return it.
func (r *BulkResult) UpdateResult() (UpdateResult, error) {
	ur := UpdateResult{Matched: r.Matched, Modified: r.Modified}
	if len(r.UpsertedIDs) > 0 {
		ur.UpsertedID = r.UpsertedIDs[0]
	}
	return ur, r.FirstError()
}

// CompactInsertedIDs returns the inserted ids in batch order with the empty
// slots (non-insert ops, failed or unattempted inserts) dropped — the shape
// the InsertMany wrappers return.
func (r *BulkResult) CompactInsertedIDs() []any {
	ids := make([]any, 0, len(r.InsertedIDs))
	for _, id := range r.InsertedIDs {
		if id != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// Merge folds the counters, aligned id slices and re-indexed errors of a
// sub-batch result into r. indices maps the sub-batch's op positions to
// positions in the original batch of size total. The query router uses it to
// reassemble per-shard results with original-index attribution.
func (r *BulkResult) Merge(sub BulkResult, indices []int, total int) {
	r.Inserted += sub.Inserted
	r.Matched += sub.Matched
	r.Modified += sub.Modified
	r.Upserted += sub.Upserted
	r.Deleted += sub.Deleted
	r.Attempted += sub.Attempted
	for k, id := range sub.InsertedIDs {
		if id == nil {
			continue
		}
		if r.InsertedIDs == nil {
			r.InsertedIDs = make([]any, total)
		}
		r.InsertedIDs[indices[k]] = id
	}
	for k, id := range sub.UpsertedIDs {
		if id == nil {
			continue
		}
		if r.UpsertedIDs == nil {
			r.UpsertedIDs = make([]any, total)
		}
		r.UpsertedIDs[indices[k]] = id
	}
	for _, e := range sub.Errors {
		r.Errors = append(r.Errors, BulkError{Index: indices[e.Index], Err: e.Err})
	}
	if r.DurabilityErr == nil {
		r.DurabilityErr = sub.DurabilityErr
	}
}

// firstTooDeep returns the index of the first op carrying a document that
// nests past bson.MaxDocumentDepth, or -1.
func firstTooDeep(ops []WriteOp) int {
	for i := range ops {
		op := &ops[i]
		for _, d := range [...]*bson.Doc{op.Doc, op.Filter, op.Update.Query, op.Update.Update} {
			if !bson.NestsWithin(d, bson.MaxDocumentDepth) {
				return i
			}
		}
	}
	return -1
}

// preparedOp is the per-op state computable without the collection lock.
type preparedOp struct {
	matcher *query.Matcher
	err     error
}

// prepareBulk validates op shapes and compiles matchers — the part of a
// batch that needs no lock — and sizes the result's aligned id slices. It
// also reports how many ops are inserts, for the spine reservation.
func prepareBulk(ops []WriteOp) (prep []preparedOp, res BulkResult, inserts int) {
	prep = make([]preparedOp, len(ops))
	upserts := false
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case InsertOp:
			inserts++
			if op.Doc == nil {
				prep[i].err = fmt.Errorf("storage: bulk insert op has no document")
			}
		case UpdateOp:
			if op.Update.Upsert {
				upserts = true
			}
			prep[i].matcher, prep[i].err = query.Compile(op.Update.Query)
		case DeleteOp:
			prep[i].matcher, prep[i].err = query.Compile(op.Filter)
		default:
			prep[i].err = fmt.Errorf("storage: unknown bulk op kind %d", int(op.Kind))
		}
	}
	if inserts > 0 {
		res.InsertedIDs = make([]any, len(ops))
	}
	if upserts {
		res.UpsertedIDs = make([]any, len(ops))
	}
	return prep, res, inserts
}

// applyOpsLocked executes a prepared batch under the held write lock with
// its ordered/unordered semantics, folding outcomes into res. It does not
// publish: the caller decides how many batches share one version.
func (c *Collection) applyOpsLocked(ops []WriteOp, prep []preparedOp, inserts int, ordered bool, res *BulkResult) {
	c.reserveLocked(inserts)
	for i := range ops {
		res.Attempted++
		if err := c.applyLocked(&ops[i], prep[i], res, i); err != nil {
			res.Errors = append(res.Errors, BulkError{Index: i, Err: err})
			if ordered {
				break
			}
		}
	}
	c.maybeCompactLocked()
}

// PendingCommit is the durability half of an applied batch: the journal
// record is appended and the batch is visible to readers, but the record may
// not be durable yet. Wait must be called exactly once, after every lock
// that ordered the batch has been released — it is also what fires the
// journal's post-commit notification (see CommitNotifier), so a batch whose
// PendingCommit is dropped stalls the change-stream frontier. The zero value
// (no journal attached, or nothing logged) waits for nothing.
type PendingCommit struct {
	commit    CommitWaiter
	journaled bool
	trace     *trace.Span
}

// Wait blocks until the batch's journal record is durable under the
// journal's sync policy (fsynced when the batch asked for j: true) and fires
// the post-commit notification. The wait is its own span, "wal.commitWait",
// beside the batch's "storage.bulkWrite".
func (p PendingCommit) Wait() error {
	if p.commit == nil {
		return nil
	}
	span := p.trace.Child("wal.commitWait")
	err := waitCommit(p.commit, p.journaled)
	span.Finish()
	return err
}

// BulkWrite executes a mixed batch of inserts, updates and deletes under a
// single write-lock acquisition with per-op error collection, and returns
// once the batch is acknowledged under the journal's sync policy: it is
// BulkApply followed by the wait on its PendingCommit. Ordered batches stop
// at the first failure; unordered batches attempt every op.
func (c *Collection) BulkWrite(ops []WriteOp, opts BulkOptions) BulkResult {
	res, pending := c.BulkApply(ops, opts)
	if err := pending.Wait(); err != nil {
		res.DurabilityErr = err
	}
	return res
}

// BulkApply is the ordered half of a bulk write: it journals the batch,
// applies it and publishes the resulting version under one write-lock
// acquisition, and returns without waiting for the journal record to become
// durable. The caller resolves the returned PendingCommit once it holds no
// lock of its own, which is what lets a replicated write overlap this
// journal's fsync with the oplog's (replset.BulkWrite) and lets concurrent
// batches share one group commit. Maintenance work is amortized across the
// batch: matchers compile before the lock is taken, the record array grows
// once for all inserts, and tombstone compaction is considered once at the
// end instead of per delete. When the batch could not be logged nothing is
// applied and DurabilityErr says why. A batch with an op whose documents nest
// past bson.MaxDocumentDepth is refused whole, nothing attempted, with that
// op's error: the log record of a batch holds every op of it, the failed ones
// too, and no reader of the log would get past this one.
func (c *Collection) BulkApply(ops []WriteOp, opts BulkOptions) (BulkResult, PendingCommit) {
	if len(ops) == 0 {
		return BulkResult{}, PendingCommit{}
	}
	if i := firstTooDeep(ops); i >= 0 {
		return BulkResult{Errors: []BulkError{{Index: i, Err: ErrDocumentTooDeep}}}, PendingCommit{}
	}
	span := opts.Trace.Child("storage.bulkWrite")
	span.SetAttr("collection", c.name)
	span.SetAttr("ops", len(ops))
	var cowBefore int64
	if span != nil {
		cowBefore = c.COWBytesCopied()
	}

	// Phase 1 (no lock): validate shapes and compile matchers.
	prep, res, inserts := prepareBulk(ops)

	// Phase 2 (one lock acquisition): journal the batch, apply the ops, then
	// publish the resulting version in one atomic swap. The record enters
	// the log before any op applies and under the same lock that orders the
	// applies, so log order equals apply order; readers never observe a
	// half-applied batch, because the version publish is the last thing the
	// batch does before releasing the lock; the durability wait happens
	// after the lock is released so concurrent batches can share one
	// group-commit fsync.
	applySpan := span.Child("storage.apply")
	c.mu.Lock()
	commit, err := c.logLocked(ops, opts.Ordered)
	if err != nil {
		c.mu.Unlock()
		applySpan.Finish()
		span.Finish()
		res.DurabilityErr = err
		return res, PendingCommit{}
	}
	c.applyOpsLocked(ops, prep, inserts, opts.Ordered, &res)
	c.publishLocked()
	c.mu.Unlock()
	applySpan.Finish()
	if commit != nil {
		res.LastLSN = commit.LSN()
	}
	if span != nil {
		span.SetAttr("cowBytesCopied", c.COWBytesCopied()-cowBefore)
		span.SetAttr("lsn", res.LastLSN)
	}
	span.Finish()
	return res, PendingCommit{commit: commit, journaled: opts.journalAck(), trace: opts.Trace}
}

// ReplayBatch is one journaled batch handed back by recovery: the logged
// ops, the ordered flag they ran under and the record's LSN.
type ReplayBatch struct {
	LSN     int64
	Ops     []WriteOp
	Ordered bool
}

// ReplayBatches re-applies a run of consecutive journaled batches under one
// write-lock acquisition and publishes one version for the whole run, so a
// page or an index-tree path the run touches many times is copied once.
// Each batch keeps its own ordered/unordered semantics and its per-op
// failures replay exactly as they failed before the crash (the log records
// the attempt, not the outcome). Batches at or below the collection's
// watermark — already inside the checkpoint snapshot it was seeded from —
// are skipped; the watermark ends at the run's last LSN. It returns how many
// batches it applied. Recovery calls it before a journal is attached, so
// nothing is logged again.
func (c *Collection) ReplayBatches(run []ReplayBatch) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	applied := 0
	for i := range run {
		b := &run[i]
		if b.LSN <= c.lastLSN {
			continue
		}
		prep, res, inserts := prepareBulk(b.Ops)
		c.applyOpsLocked(b.Ops, prep, inserts, b.Ordered, &res)
		c.lastLSN = b.LSN
		applied++
	}
	if applied > 0 {
		c.publishLocked()
	}
	return applied
}

// applyLocked executes one bulk op under the held write lock, folding its
// outcome into res at position i.
func (c *Collection) applyLocked(op *WriteOp, prep preparedOp, res *BulkResult, i int) error {
	if prep.err != nil {
		return prep.err
	}
	switch op.Kind {
	case InsertOp:
		id, err := c.insertLocked(op.Doc)
		if err != nil {
			return err
		}
		res.InsertedIDs[i] = id
		res.Inserted++
		return nil
	case UpdateOp:
		ur, err := c.updateLocked(op.Update, prep.matcher)
		res.Matched += ur.Matched
		res.Modified += ur.Modified
		if ur.UpsertedID != nil {
			res.Upserted++
			res.UpsertedIDs[i] = ur.UpsertedID
		}
		return err
	default: // DeleteOp
		res.Deleted += c.deleteLocked(prep.matcher, op.Multi)
		return nil
	}
}
