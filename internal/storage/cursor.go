package storage

import (
	"strings"
	"sync"

	"docstore/internal/bson"
	"docstore/internal/query"
)

// DefaultBatchSize is the number of documents a streaming cursor pulls from
// its snapshot per fill when FindOptions.BatchSize is zero. It mirrors the
// role of the wire protocol's default batch size: large enough to amortize
// per-batch bookkeeping, small enough to bound per-batch memory.
const DefaultBatchSize = 256

// Cursor streams the results of a query in batches instead of materializing
// the full result set, so peak memory for a scan is O(batch) rather than
// O(result). It retains the iterator interface the thesis' algorithms are
// written against (cursor.hasNext() / cursor.next() in Figure 4.7) alongside
// Go-style TryNext/NextBatch accessors.
//
// A cursor opened against a collection pins one immutable Snapshot for its
// whole lifetime and provides true point-in-time isolation: the drained
// result is exactly the set — and the contents — of the documents committed
// when the cursor opened. Inserts, updates and deletes committed after the
// open are invisible, compaction and record-array growth never perturb an
// open scan, and no batch ever takes a collection lock, so scans proceed at
// full speed under sustained bulk-write load. (Before the MVCC engine,
// cursors froze at whatever state the record array happened to be rewritten
// into — deletes were visible until a growth or compaction rewrote the
// array; that anomaly is gone.)
//
// Cursors are not safe for concurrent use by multiple goroutines.
type Cursor struct {
	// Streaming state (snap == nil for slice-backed cursors).
	snap    *Snapshot
	indexed bool     // order holds the candidates; otherwise a sequential scan
	order   []uint32 // index-scan positions into the snapshot, never written
	next    int
	matcher *query.Matcher // what the plan left to check: the residual
	proj    *query.Projection

	skipLeft  int
	limitLeft int // -1 = unlimited
	batchSize int // <= 0 = unbounded (whole result in one batch)

	// Slice mode: pre-materialized results (sorted queries, NewCursor).
	rest []*bson.Doc

	buf    []*bson.Doc
	pos    int
	done   bool
	closed bool
	plan   Plan

	onFinish func()
}

// OnFinish registers a hook invoked exactly once when the cursor is
// exhausted or closed, whichever happens first. The profiler uses it to
// time a streamed query over its whole drain rather than its construction.
func (cur *Cursor) OnFinish(fn func()) { cur.onFinish = fn }

func (cur *Cursor) finishOnce() {
	if cur.onFinish != nil {
		fn := cur.onFinish
		cur.onFinish = nil
		fn()
	}
}

// NewCursor wraps an already materialized result slice in a cursor.
func NewCursor(docs []*bson.Doc) *Cursor {
	return &Cursor{rest: docs, limitLeft: -1, batchSize: -1}
}

// BatchSize returns the cursor's batch size; <= 0 means unbounded.
func (cur *Cursor) BatchSize() int { return cur.batchSize }

// Snapshot returns the snapshot the cursor is pinned to, or nil for a
// slice-backed cursor over pre-materialized results.
func (cur *Cursor) Snapshot() *Snapshot { return cur.snap }

// Plan returns the execution plan observed so far. After the cursor is
// exhausted it matches the plan FindWithPlan would have returned.
func (cur *Cursor) Plan() Plan { return cur.plan }

// Err returns the first error encountered while iterating. Storage cursors
// validate their query at creation, so Err is always nil today; it exists so
// higher layers can treat every cursor uniformly.
func (cur *Cursor) Err() error { return nil }

// Close releases the cursor's snapshot and buffers. It is safe to call more
// than once and after exhaustion. Releasing the snapshot unpins its version,
// letting the engine recycle the pages the cursor was retaining (see
// EngineStats) — a cursor held open is exactly the "stuck cursor" the
// oldest-pin-age gauge measures.
func (cur *Cursor) Close() error {
	cur.closed = true
	cur.done = true
	if cur.snap != nil {
		cur.snap.Release()
	}
	cur.snap = nil
	cur.order = nil
	cur.rest = nil
	cur.buf = nil
	cur.pos = 0
	cur.finishOnce()
	return nil
}

// HasNext reports whether another document is available, fetching the next
// batch when the current one is consumed.
func (cur *Cursor) HasNext() bool {
	for cur.pos >= len(cur.buf) {
		if cur.done || cur.closed {
			// Exhausted: unpin the snapshot eagerly instead of waiting for
			// Close, so a drained-but-unclosed cursor retains nothing.
			if cur.snap != nil {
				cur.snap.Release()
			}
			cur.finishOnce()
			return false
		}
		cur.fill()
	}
	return true
}

// Next returns the next document; it panics when exhausted, matching
// iterator misuse being a programming error (the thesis-style next()).
func (cur *Cursor) Next() *bson.Doc {
	if !cur.HasNext() {
		panic("storage: Next called on exhausted cursor")
	}
	d := cur.buf[cur.pos]
	cur.pos++
	return d
}

// TryNext returns the next document, or (nil, false) when the cursor is
// exhausted or closed.
func (cur *Cursor) TryNext() (*bson.Doc, bool) {
	if !cur.HasNext() {
		return nil, false
	}
	d := cur.buf[cur.pos]
	cur.pos++
	return d, true
}

// NextBatch returns the next batch of documents, or an empty slice when the
// cursor is exhausted. The returned slice is the cursor's internal buffer and
// is only valid until the following NextBatch/Next call.
func (cur *Cursor) NextBatch() []*bson.Doc {
	if !cur.HasNext() {
		return nil
	}
	batch := cur.buf[cur.pos:]
	cur.pos = len(cur.buf)
	return batch
}

// All drains the remaining documents and closes the cursor.
func (cur *Cursor) All() ([]*bson.Doc, error) {
	var out []*bson.Doc
	for {
		batch := cur.NextBatch()
		if len(batch) == 0 {
			break
		}
		out = append(out, batch...)
	}
	err := cur.Err()
	cur.Close()
	return out, err
}

// fill pulls the next batch into cur.buf. Snapshot-backed cursors scan their
// pinned immutable version, so the fill takes no locks at all and a batch
// can never observe a concurrent writer's partial state.
func (cur *Cursor) fill() {
	cur.buf = cur.buf[:0]
	cur.pos = 0
	if cur.done || cur.closed {
		return
	}
	if cur.snap == nil {
		n := len(cur.rest)
		if cur.batchSize > 0 && n > cur.batchSize {
			n = cur.batchSize
		}
		cur.buf = append(cur.buf, cur.rest[:n]...)
		cur.rest = cur.rest[n:]
		cur.plan.DocsReturned += n
		if len(cur.rest) == 0 {
			cur.done = true
		}
		return
	}

	v := cur.snap.v
	examinedBefore := cur.plan.DocsExamined
	for !cur.done && (cur.batchSize <= 0 || len(cur.buf) < cur.batchSize) {
		var r *record
		if cur.indexed {
			if cur.next >= len(cur.order) {
				cur.done = true
				break
			}
			pos := int(cur.order[cur.next])
			cur.next++
			if pos >= v.length {
				continue
			}
			r = v.record(pos)
		} else {
			if cur.next >= v.length {
				cur.done = true
				break
			}
			r = v.record(cur.next)
			cur.next++
		}
		if r == nil || r.deleted {
			continue
		}
		cur.plan.DocsExamined++
		if !cur.matcher.Matches(r.doc) {
			continue
		}
		if cur.skipLeft > 0 {
			cur.skipLeft--
			continue
		}
		d := r.doc
		if cur.proj != nil {
			d = cur.proj.Apply(d)
		}
		cur.buf = append(cur.buf, d)
		cur.plan.DocsReturned++
		if cur.limitLeft > 0 {
			cur.limitLeft--
			if cur.limitLeft == 0 {
				cur.done = true
			}
		}
	}
	cur.snap.coll.docsExamined.Add(int64(cur.plan.DocsExamined - examinedBefore))
	if len(cur.buf) == 0 {
		cur.done = true
	}
}

// openScan pins the snapshot a cursor will read and plans its access path,
// with zero mutex acquisitions: the pin is an atomic load through the pin
// gate, and planning and index scans — _id_ like any other index — run
// against the version-owned frozen index trees, immutable path-copied
// structures published together with the records, so the position list
// agrees with the pinned records by construction. A non-zero opts.AtVersion
// pins the named committed version instead of the current one; see
// SnapshotAt.
func (c *Collection) openScan(matcher *query.Matcher, opts FindOptions) (*Snapshot, access, error) {
	snap, err := c.SnapshotAt(opts.AtVersion)
	if err != nil {
		return nil, access{}, err
	}
	acc, err := planEnv{coll: c.name, indexes: snap.v.indexes}.plan(matcher, opts)
	if err != nil {
		snap.Release()
		return nil, access{}, err
	}
	return snap, acc, nil
}

// HoldWrites blocks every mutation on the collection until the returned
// release function is called (it is idempotent). Reads are unaffected —
// they pin published versions. Checkpoints hold every collection at once to
// establish a single capture point: with writers held, the set of published
// versions across collections is one mutually consistent cut.
func (c *Collection) HoldWrites() (release func()) {
	c.mu.Lock()
	var once sync.Once
	return func() { once.Do(c.mu.Unlock) }
}

// FindCursor opens a streaming cursor over the documents matching filter.
// The cursor pins one snapshot for its whole lifetime (see Cursor). Queries
// without a sort stream directly from the snapshot (or index) scan in
// batches of opts.BatchSize documents; queries with a sort are blocking and
// materialize their result before the first batch, exactly as an in-memory
// sort must.
func (c *Collection) FindCursor(filter *bson.Doc, opts FindOptions) (*Cursor, error) {
	matcher, err := query.Compile(filter)
	if err != nil {
		return nil, err
	}
	return c.FindCursorCompiled(matcher, opts)
}

// FindCursorCompiled is FindCursor for a filter the caller has compiled
// already, an aggregation's leading $match for one. A nil matcher matches
// every document.
func (c *Collection) FindCursorCompiled(matcher *query.Matcher, opts FindOptions) (*Cursor, error) {
	batchSize := opts.BatchSize
	if batchSize == 0 {
		batchSize = DefaultBatchSize
	}

	// The plan span covers the snapshot pin and access-path choice — the
	// part of a query that may contend on the writer mutex; the batch fills
	// that follow are lock-free and belong to the caller's drain time.
	planSpan := opts.Trace.Child("storage.plan")
	snap, acc, err := c.openScan(matcher, opts)
	if err != nil {
		planSpan.Finish()
		return nil, err
	}
	if planSpan != nil {
		planSpan.SetAttr("collection", c.name)
		planSpan.SetAttr("index", acc.index)
		if len(acc.intersected) > 0 {
			planSpan.SetAttr("intersected", strings.Join(acc.intersected, ","))
		}
		planSpan.SetAttr("keysExamined", acc.keys)
		planSpan.SetAttr("clausesCovered", acc.covered)
		planSpan.SetAttr("snapshotVersion", snap.Version())
		planSpan.Finish()
	}
	if acc.index == "" {
		c.scans.Add(1)
	} else {
		c.indexScans.Add(1)
		c.keysExamined.Add(int64(acc.keys))
	}

	cur := &Cursor{
		snap:      snap,
		indexed:   acc.index != "",
		order:     acc.positions,
		matcher:   acc.residual,
		batchSize: batchSize,
		limitLeft: -1,
		plan: Plan{
			Collection:      c.name,
			IndexUsed:       acc.index,
			Intersected:     acc.intersected,
			KeysExamined:    acc.keys,
			ClausesCovered:  acc.covered,
			SnapshotVersion: snap.Version(),
			Isolation:       IsolationSnapshot,
		},
	}

	if len(opts.Sort) > 0 {
		// Blocking sort: drain the raw scan, order it, then serve the result
		// from a slice-backed cursor that retains the scan's plan counters
		// (snapshot version included: the sorted result is exactly the
		// pinned version's matching set).
		cur.batchSize = -1
		cur.fill()
		docs := append([]*bson.Doc(nil), cur.buf...)
		plan := cur.plan
		cur.Close() // the drain is done; unpin the scan's snapshot
		plan.SortInMemory = true
		plan.DocsReturned = 0
		opts.Sort.Apply(docs)
		if opts.Skip > 0 {
			if opts.Skip >= len(docs) {
				docs = nil
			} else {
				docs = docs[opts.Skip:]
			}
		}
		if opts.Limit > 0 && len(docs) > opts.Limit {
			docs = docs[:opts.Limit]
		}
		if opts.Projection != nil {
			projected := make([]*bson.Doc, len(docs))
			for i, d := range docs {
				projected[i] = opts.Projection.Apply(d)
			}
			docs = projected
		}
		return &Cursor{rest: docs, limitLeft: -1, batchSize: batchSize, plan: plan}, nil
	}

	cur.proj = opts.Projection
	cur.skipLeft = opts.Skip
	if opts.Limit > 0 {
		cur.limitLeft = opts.Limit
	}
	return cur, nil
}
