package mongos

import (
	"fmt"
	"sync"

	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/storage"
)

// Cursor is the router's streaming result cursor, for finds and aggregations
// alike: a merge over one document stream per targeted shard — a shard's find
// cursor, or the shard half of a pipeline. Each shard stream pins its shard's
// committed storage version at open, so the merge reads one immutable
// snapshot per shard — the prefetch pumps scan entirely lock-free and are
// never stalled by (nor ever stall) bulk writes the router keeps scattering
// to the same shards. Instead of gathering every shard's full result and
// merging afterwards, the router pulls shard streams in batches — lazily when
// Options.Parallel is off, via one prefetching goroutine per shard when it is
// on — so the router's peak memory is O(shards × batch) rather than
// O(result). When the query carries a sort, each shard stream is already
// ordered and the merge pops the smallest head (ties resolved by shard
// registration order, matching query.Sort.Merge); without a sort the shard
// streams are concatenated in target order. The first shard stream to fail
// ends the merge, and Err reports it.
//
// Cursors are not safe for concurrent use by multiple goroutines.
type Cursor struct {
	r     *Router
	sort  query.Sort
	feeds []*feed
	done  chan struct{} // stops parallel pumps

	skipLeft  int
	limitLeft int // -1 = unlimited
	inited    bool
	seq       int // current feed in concatenation mode

	err      error
	pulled   int64 // docs pulled from shards, flushed to RoutingStats
	finished bool
}

// feed is one shard's document stream with a one-document lookahead head
// used by the sorted merge.
type feed struct {
	shard string
	src   aggregate.Iterator // sequential mode: pulled lazily, nil once ended
	ch    chan []*bson.Doc   // parallel mode: filled by a pump goroutine
	err   error              // why the stream ended; a pump sets it before closing ch
	batch []*bson.Doc
	pos   int
	head  *bson.Doc
	has   bool
}

func (f *feed) next() (*bson.Doc, bool) {
	if f.ch == nil {
		if f.src == nil {
			return nil, false
		}
		d, ok := f.src.Next()
		if !ok {
			f.err = f.src.Err()
			f.src.Close()
			f.src = nil
		}
		return d, ok
	}
	for f.pos >= len(f.batch) {
		b, ok := <-f.ch
		if !ok {
			return nil, false
		}
		f.batch, f.pos = b, 0
	}
	d := f.batch[f.pos]
	f.pos++
	return d, true
}

// pump streams one shard's documents into ch in batches of 64 until the
// stream ends or the merge cursor closes done. The stream's error is stored
// in *errp before ch closes, so the merge sees it once it has drained ch.
func pump(src aggregate.Iterator, ch chan<- []*bson.Doc, done <-chan struct{}, errp *error) {
	defer close(ch)
	defer src.Close()
	const pumpBatch = 64
	for {
		batch := make([]*bson.Doc, 0, pumpBatch)
		for len(batch) < pumpBatch {
			d, ok := src.Next()
			if !ok {
				*errp = src.Err()
				if len(batch) > 0 {
					select {
					case ch <- batch:
					case <-done:
					}
				}
				return
			}
			batch = append(batch, d)
		}
		select {
		case ch <- batch:
		case <-done:
			return
		}
	}
}

// scatter opens one stream on each target shard's current primary — one
// shard call each, made concurrently when Options.Parallel is set — records
// the routing, and returns the merge cursor over the streams: pumped by one
// goroutine per shard in parallel mode, pulled lazily otherwise. If an open
// fails, the streams already open are closed.
func (r *Router) scatter(targets []string, targeted bool, sort query.Sort, open func(*mongod.Server) (aggregate.Iterator, error)) (*Cursor, error) {
	its := make([]aggregate.Iterator, len(targets))
	errs := make([]error, len(targets))
	openOne := func(i int) {
		r.remoteCall()
		its[i], errs[i] = open(r.Shard(targets[i]))
	}
	if r.opts.Parallel {
		var wg sync.WaitGroup
		for i := range targets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				openOne(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range targets {
			openOne(i)
			if errs[i] != nil {
				break
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			for _, it := range its {
				if it != nil {
					it.Close()
				}
			}
			return nil, fmt.Errorf("mongos: shard %s: %w", targets[i], err)
		}
	}
	r.recordRouting(targeted)

	c := &Cursor{r: r, sort: sort, limitLeft: -1}
	if r.opts.Parallel {
		c.done = make(chan struct{})
	}
	for i, it := range its {
		f := &feed{shard: targets[i]}
		if c.done != nil {
			// Two queued batches let the pump run ahead of the merge while
			// bounding what a shard holds on the router.
			f.ch = make(chan []*bson.Doc, 2)
			go pump(it, f.ch, c.done, &f.err)
		} else {
			f.src = it
		}
		c.feeds = append(c.feeds, f)
	}
	return c, nil
}

// FindCursor routes a query and returns a streaming merge cursor over the
// targeted shards' cursors. Skip and limit are applied at the merge; each
// shard cursor is opened with limit skip+limit so no shard produces more
// than the merge can consume.
func (r *Router) FindCursor(db, coll string, filter *bson.Doc, opts storage.FindOptions) (*Cursor, error) {
	targets, targeted := r.targetShards(r.config.Metadata(namespace(db, coll)), filter)
	shardOpts := opts
	shardOpts.Skip = 0
	if opts.Limit > 0 {
		shardOpts.Limit = opts.Limit + opts.Skip
	}
	c, err := r.scatter(targets, targeted, opts.Sort, func(s *mongod.Server) (aggregate.Iterator, error) {
		cur, err := s.Database(db).FindCursor(coll, filter, shardOpts)
		if err != nil {
			return nil, err
		}
		return mongod.Iter(cur), nil
	})
	if err != nil {
		return nil, err
	}
	c.skipLeft = opts.Skip
	if opts.Limit > 0 {
		c.limitLeft = opts.Limit
	}
	return c, nil
}

// Next returns the next merged document.
func (c *Cursor) Next() (*bson.Doc, bool) {
	if c.finished {
		return nil, false
	}
	if c.limitLeft == 0 {
		c.finish()
		return nil, false
	}
	for {
		d, ok := c.pull()
		if !ok {
			c.finish()
			return nil, false
		}
		c.pulled++
		if c.skipLeft > 0 {
			c.skipLeft--
			continue
		}
		if c.limitLeft > 0 {
			c.limitLeft--
		}
		return d, true
	}
}

// pull produces the next document in merge order, before skip/limit.
func (c *Cursor) pull() (*bson.Doc, bool) {
	if len(c.sort) == 0 {
		for c.seq < len(c.feeds) {
			if d, ok := c.next(c.feeds[c.seq]); ok || c.err != nil {
				return d, ok
			}
			c.seq++
		}
		return nil, false
	}
	if !c.inited {
		c.inited = true
		for _, f := range c.feeds {
			f.head, f.has = c.next(f)
		}
	}
	best := -1
	for i, f := range c.feeds {
		if !f.has {
			continue
		}
		if best == -1 || c.sort.Compare(f.head, c.feeds[best].head) < 0 {
			best = i
		}
	}
	if best == -1 || c.err != nil {
		return nil, false
	}
	d := c.feeds[best].head
	c.feeds[best].head, c.feeds[best].has = c.next(c.feeds[best])
	return d, true
}

// next pulls a feed's next document; a feed whose stream failed sets the
// cursor's error, which ends the merge.
func (c *Cursor) next(f *feed) (*bson.Doc, bool) {
	d, ok := f.next()
	if !ok && f.err != nil && c.err == nil {
		c.err = fmt.Errorf("mongos: shard %s: %w", f.shard, f.err)
	}
	return d, ok
}

// Err returns the error that ended the stream, if any: the first shard
// stream to fail, as "mongos: shard <name>: …".
func (c *Cursor) Err() error { return c.err }

// Close stops the shard pumps, closes the shard streams and flushes the
// routing statistics. Safe to call multiple times.
func (c *Cursor) Close() { c.finish() }

// All drains the remaining documents and closes the cursor.
func (c *Cursor) All() ([]*bson.Doc, error) { return aggregate.Drain(c) }

func (c *Cursor) finish() {
	if c.finished {
		return
	}
	c.finished = true
	if c.done != nil {
		close(c.done)
	}
	for _, f := range c.feeds {
		if f.src != nil {
			f.src.Close()
			f.src = nil
		}
		if f.ch != nil {
			// Unblock and wait out the pump; the channel closes when it exits.
			for range f.ch {
			}
		}
		f.batch = nil
	}
	c.r.mu.Lock()
	c.r.stats.DocsMerged += c.pulled
	c.r.mu.Unlock()
}

// AggregateCursor routes an aggregation pipeline and returns a streaming
// iterator over its results: the per-document prefix of the pipeline runs on
// each targeted shard behind a shard-side cursor, the merge cursor
// concatenates the shard streams, and the remainder of the pipeline consumes
// the concatenation incrementally on the router, with $out writing to the
// primary shard.
func (r *Router) AggregateCursor(db, coll string, stages []*bson.Doc) (aggregate.Iterator, error) {
	pipeline, err := aggregate.Parse(stages)
	if err != nil {
		return nil, err
	}
	shardPart, mergePart := pipeline.Split()
	shardStages := stages[:shardPart.Len()]

	// Targeting uses the leading $match stage when the pipeline starts with
	// one, mirroring how the router can only avoid a broadcast when the match
	// pins the shard key.
	var filter *bson.Doc
	if len(stages) > 0 {
		if m, ok := stages[0].Get("$match"); ok {
			if md, ok := m.(*bson.Doc); ok {
				filter = md
			}
		}
	}
	targets, targeted := r.targetShards(r.config.Metadata(namespace(db, coll)), filter)
	merged, err := r.scatter(targets, targeted, nil, func(s *mongod.Server) (aggregate.Iterator, error) {
		if len(shardStages) == 0 {
			cur, err := s.Database(db).Collection(coll).FindCursor(nil, storage.FindOptions{})
			if err != nil {
				return nil, err
			}
			return mongod.Iter(cur), nil
		}
		return s.Database(db).AggregateCursor(coll, shardStages)
	})
	if err != nil {
		return nil, err
	}
	if mergePart.Len() == 0 {
		return merged, nil
	}
	primary := r.PrimaryShard()
	if primary == nil {
		merged.Close()
		return nil, fmt.Errorf("mongos: no shards registered")
	}
	return mongod.Results(mergePart.RunIter(merged, primary.Database(db).Env())), nil
}
