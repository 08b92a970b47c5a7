package mongod

import (
	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/storage"
)

// Iter adapts a storage cursor to the aggregation engine's Iterator
// interface, letting a pipeline stream straight off a collection or index
// scan. The underlying cursor pins one storage snapshot, so the pipeline's
// whole input is a single committed version no matter how long the
// downstream stages take.
func Iter(cur *storage.Cursor) aggregate.Iterator { return cursorIter{cur} }

type cursorIter struct{ cur *storage.Cursor }

func (i cursorIter) Next() (*bson.Doc, bool) { return i.cur.TryNext() }
func (i cursorIter) Err() error              { return i.cur.Err() }
func (i cursorIter) Close()                  { _ = i.cur.Close() }

// FindCursor runs a query against the named collection and returns a
// streaming cursor over the results. Batch size is controlled by
// opts.BatchSize (zero uses storage.DefaultBatchSize). The cursor pins one
// storage snapshot for its whole lifetime, so every batch it ever returns —
// wire getMore batches included — belongs to the same committed version.
// The profiler records the operation when the cursor is exhausted or
// closed, so a streamed query is timed over its whole drain and the entry
// carries the finished plan (access path, docs examined, snapshot version).
func (db *Database) FindCursor(coll string, filter *bson.Doc, opts storage.FindOptions) (*storage.Cursor, error) {
	db.server.countOp("query")
	start := db.server.clockTime()
	cur, err := db.Collection(coll).FindCursor(filter, opts)
	if err != nil {
		db.record(ProfileEntry{Op: "find", Collection: coll, At: start}, nil)
		return nil, err
	}
	cur.OnFinish(func() { db.recordPlan("find", coll, start, cur.Plan()) })
	return cur, nil
}

// AggregateCursor runs an aggregation pipeline over the named collection and
// returns an iterator over its results. The streamable prefix of the
// pipeline ($match/$project/$addFields/$unwind/$limit/$skip, plus an
// incrementally accumulated $group) pulls documents off the collection scan
// in cursor batches, so peak memory is O(batch) plus any blocking stage's
// state rather than O(collection). Like FindCursor, the profiler records the
// operation when the iterator finishes, not when it is built.
//
// A leading $match is pushed down into the storage engine so it can use the
// collection's indexes, exactly as Aggregate does.
func (db *Database) AggregateCursor(coll string, stages []*bson.Doc) (aggregate.Iterator, error) {
	db.server.countOp("command")
	stop := db.profile("aggregate", coll)
	it, err := db.aggregateIter(coll, stages)
	if err != nil {
		stop()
		return nil, err
	}
	it.stop = stop
	return it, nil
}

// aggregateIter is the shared streaming implementation behind Aggregate and
// AggregateCursor. The pipeline is compiled once: a leading $match is pushed
// down into the storage engine, which scans with the filter Parse compiled,
// and the remaining stages run over the narrowed stream.
func (db *Database) aggregateIter(coll string, stages []*bson.Doc) (*resultIter, error) {
	pipeline, err := aggregate.Parse(stages)
	if err != nil {
		return nil, err
	}
	scan := pipeline.LeadingMatch()
	if scan != nil {
		pipeline = pipeline.Tail(1)
	}
	cur, err := db.Collection(coll).FindCursorCompiled(scan, storage.FindOptions{})
	if err != nil {
		return nil, err
	}
	return &resultIter{it: pipeline.RunIter(Iter(cur), db.Env())}, nil
}

// Results wraps the output of a pipeline that ran outside a Database — the
// merge half of a routed aggregation — in the check its results would have
// met leaving one.
func Results(it aggregate.Iterator) aggregate.Iterator { return &resultIter{it: it} }

// resultIter is what an aggregation's results leave the server through. A
// pipeline can wrap a stored document in more levels than a reply may carry
// ($project, $group); such a result fails the aggregation with the error a
// write of the same document gets, checked here, once, on what leaves and
// not on every intermediate row. stop, when set, is invoked exactly once,
// when the iterator ends or is closed.
type resultIter struct {
	it   aggregate.Iterator
	err  error
	stop func()
}

func (r *resultIter) Next() (*bson.Doc, bool) {
	d, ok := r.it.Next()
	if ok && !bson.NestsWithin(d, bson.MaxDocumentDepth) {
		r.err = storage.ErrDocumentTooDeep
		r.it.Close()
		d, ok = nil, false
	}
	if !ok {
		r.finish()
	}
	return d, ok
}

func (r *resultIter) Err() error {
	if r.err != nil {
		return r.err
	}
	return r.it.Err()
}

func (r *resultIter) Close() {
	r.it.Close()
	r.finish()
}

func (r *resultIter) finish() {
	if r.stop != nil {
		stop := r.stop
		r.stop = nil
		stop()
	}
}
