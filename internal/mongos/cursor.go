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

// Cursor is the router's streaming result cursor: a k-way merge over
// per-shard storage cursors. Each shard cursor pins its shard's committed
// storage version at open, so the merge reads one immutable snapshot per
// shard — the prefetch pumps scan entirely lock-free and are never stalled
// by (nor ever stall) bulk writes the router keeps scattering to the same
// shards. Instead of gathering every shard's full result and merging
// afterwards, the router pulls shard cursors in batches — lazily when
// Options.Parallel is off, via one prefetching goroutine per shard when it
// is on — so the router's peak memory is O(shards × batch) rather than
// O(result). When the query carries a sort, each shard cursor is already
// ordered and the merge pops the smallest head (ties resolved by shard
// registration order, matching query.Sort.Merge); without a sort the shard
// streams are concatenated in target order.
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

	pulled   int64 // docs pulled from shards, flushed to RoutingStats
	finished bool
	closed   bool
}

// feed is one shard's document stream with a one-document lookahead head
// used by the sorted merge.
type feed struct {
	cur   *storage.Cursor  // sequential mode: pulled lazily
	ch    chan []*bson.Doc // parallel mode: filled by a pump goroutine
	batch []*bson.Doc
	pos   int
	head  *bson.Doc
	has   bool
}

func (f *feed) next() (*bson.Doc, bool) {
	for {
		if f.pos < len(f.batch) {
			d := f.batch[f.pos]
			f.pos++
			return d, true
		}
		if f.ch != nil {
			b, ok := <-f.ch
			if !ok {
				return nil, false
			}
			f.batch, f.pos = b, 0
			continue
		}
		if f.cur == nil {
			return nil, false
		}
		// NextBatch reuses the cursor's internal buffer; the feed consumes it
		// fully before asking for the next one.
		b := f.cur.NextBatch()
		if len(b) == 0 {
			_ = f.cur.Close()
			f.cur = nil
			return nil, false
		}
		f.batch, f.pos = b, 0
	}
}

// pump streams one shard cursor into a channel until the cursor is
// exhausted or the merge cursor is closed.
func pump(cur *storage.Cursor, ch chan<- []*bson.Doc, done <-chan struct{}) {
	defer close(ch)
	defer cur.Close()
	for {
		b := cur.NextBatch()
		if len(b) == 0 {
			return
		}
		cp := append([]*bson.Doc(nil), b...)
		select {
		case ch <- cp:
		case <-done:
			return
		}
	}
}

// FindCursor routes a query and returns a streaming merge cursor over the
// targeted shards' cursors. Skip and limit are applied at the merge; each
// shard cursor is opened with limit skip+limit so no shard produces more
// than the merge can consume.
func (r *Router) FindCursor(db, coll string, filter *bson.Doc, opts storage.FindOptions) (*Cursor, error) {
	meta := r.config.Metadata(namespace(db, coll))
	targets, targeted := r.targetShards(meta, filter)

	shardOpts := opts
	shardOpts.Skip = 0
	if opts.Limit > 0 {
		shardOpts.Limit = opts.Limit + opts.Skip
	}

	curs := make([]*storage.Cursor, len(targets))
	closeAll := func() {
		for _, c := range curs {
			if c != nil {
				_ = c.Close()
			}
		}
	}
	if r.opts.Parallel {
		var wg sync.WaitGroup
		errs := make([]error, len(targets))
		for i, name := range targets {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				r.remoteCall()
				curs[i], errs[i] = r.Shard(name).Database(db).FindCursor(coll, filter, shardOpts)
			}(i, name)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("mongos: shard %s: %w", targets[i], err)
			}
		}
	} else {
		for i, name := range targets {
			r.remoteCall()
			cur, err := r.Shard(name).Database(db).FindCursor(coll, filter, shardOpts)
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("mongos: shard %s: %w", name, err)
			}
			curs[i] = cur
		}
	}
	r.recordRouting(targeted, 0)

	mc := &Cursor{r: r, sort: opts.Sort, skipLeft: opts.Skip, limitLeft: -1}
	if opts.Limit > 0 {
		mc.limitLeft = opts.Limit
	}
	if r.opts.Parallel {
		mc.done = make(chan struct{})
		for _, cur := range curs {
			ch := make(chan []*bson.Doc, 2)
			go pump(cur, ch, mc.done)
			mc.feeds = append(mc.feeds, &feed{ch: ch})
		}
	} else {
		for _, cur := range curs {
			mc.feeds = append(mc.feeds, &feed{cur: cur})
		}
	}
	return mc, nil
}

// Next returns the next merged document.
func (c *Cursor) Next() (*bson.Doc, bool) {
	if c.closed || c.finished {
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
			if d, ok := c.feeds[c.seq].next(); ok {
				return d, true
			}
			c.seq++
		}
		return nil, false
	}
	if !c.inited {
		c.inited = true
		for _, f := range c.feeds {
			f.head, f.has = f.next()
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
	if best == -1 {
		return nil, false
	}
	d := c.feeds[best].head
	c.feeds[best].head, c.feeds[best].has = c.feeds[best].next()
	return d, true
}

// Err returns the error that terminated the stream, if any. Shard storage
// cursors cannot fail mid-iteration today, so Err is always nil; it exists
// so the router cursor satisfies the shared iterator contract.
func (c *Cursor) Err() error { return nil }

// Close stops the shard pumps, closes the shard cursors and flushes the
// routing statistics. Safe to call multiple times.
func (c *Cursor) Close() { c.finish() }

// All drains the remaining documents and closes the cursor.
func (c *Cursor) All() ([]*bson.Doc, error) {
	var out []*bson.Doc
	for {
		d, ok := c.Next()
		if !ok {
			break
		}
		out = append(out, d)
	}
	err := c.Err()
	c.Close()
	return out, err
}

func (c *Cursor) finish() {
	if c.finished {
		return
	}
	c.finished = true
	c.closed = true
	if c.done != nil {
		close(c.done)
		c.done = nil
	}
	for _, f := range c.feeds {
		if f.cur != nil {
			_ = f.cur.Close()
			f.cur = nil
		}
		if f.ch != nil {
			// Unblock and wait out the pump; the channel closes when it exits.
			for range f.ch {
			}
			f.ch = nil
		}
		f.batch = nil
	}
	c.r.mu.Lock()
	c.r.stats.DocsMerged += c.pulled
	c.r.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Streaming aggregation

// concatIter concatenates per-shard aggregation iterators, optionally
// prefetching each shard's stream on a goroutine, and counts the documents
// it merges into the router's routing statistics.
type concatIter struct {
	r     *Router
	names []string
	its   []aggregate.Iterator // sequential mode
	chans []chan []*bson.Doc   // parallel mode
	errs  []error              // written by pump i before chans[i] closes
	done  chan struct{}

	idx      int
	batch    []*bson.Doc
	pos      int
	err      error
	pulled   int64
	finished bool
}

func (it *concatIter) Next() (*bson.Doc, bool) {
	if it.finished {
		return nil, false
	}
	for {
		if it.pos < len(it.batch) {
			d := it.batch[it.pos]
			it.pos++
			it.pulled++
			return d, true
		}
		if it.idx >= len(it.names) {
			it.finish()
			return nil, false
		}
		if it.chans != nil {
			b, ok := <-it.chans[it.idx]
			if ok {
				it.batch, it.pos = b, 0
				continue
			}
			if err := it.errs[it.idx]; err != nil {
				it.err = fmt.Errorf("mongos: shard %s: %w", it.names[it.idx], err)
				it.finish()
				return nil, false
			}
			it.idx++
			continue
		}
		src := it.its[it.idx]
		d, ok := src.Next()
		if ok {
			it.pulled++
			return d, true
		}
		if err := src.Err(); err != nil {
			it.err = fmt.Errorf("mongos: shard %s: %w", it.names[it.idx], err)
			it.finish()
			return nil, false
		}
		src.Close()
		it.idx++
	}
}

func (it *concatIter) Err() error { return it.err }
func (it *concatIter) Close()     { it.finish() }

func (it *concatIter) finish() {
	if it.finished {
		return
	}
	it.finished = true
	if it.done != nil {
		close(it.done)
		it.done = nil
	}
	for _, src := range it.its {
		src.Close()
	}
	for _, ch := range it.chans {
		for range ch {
		}
	}
	it.batch = nil
	it.r.mu.Lock()
	it.r.stats.DocsMerged += it.pulled
	it.r.mu.Unlock()
}

// pumpIter streams an aggregation iterator into a channel in small batches.
// Any iteration error is stored in *errp before the channel closes, so the
// consumer observes it after draining.
func pumpIter(src aggregate.Iterator, ch chan<- []*bson.Doc, done <-chan struct{}, errp *error) {
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

// AggregateCursor routes an aggregation pipeline and returns a streaming
// iterator over its results: the per-document prefix of the pipeline runs on
// each targeted shard behind a shard-side cursor, the shard streams are
// concatenated (prefetched concurrently when Options.Parallel is set), and
// the remainder of the pipeline consumes the concatenation incrementally on
// the router, with $out writing to the primary shard.
func (r *Router) AggregateCursor(db, coll string, stages []*bson.Doc) (aggregate.Iterator, error) {
	pipeline, err := aggregate.Parse(stages)
	if err != nil {
		return nil, err
	}
	shardPart, _ := pipeline.Split()
	cut := shardPart.Len()
	shardStages := stages[:cut]
	mergeStages := stages[cut:]

	// Targeting uses the leading $match stage when the pipeline starts with
	// one, mirroring how the router can only avoid a broadcast when the match
	// pins the shard key.
	meta := r.config.Metadata(namespace(db, coll))
	var filter *bson.Doc
	if len(stages) > 0 {
		if m, ok := stages[0].Get("$match"); ok {
			if md, ok := m.(*bson.Doc); ok {
				filter = md
			}
		}
	}
	targets, targeted := r.targetShards(meta, filter)

	openShard := func(name string) (aggregate.Iterator, error) {
		s := r.Shard(name)
		if len(shardStages) == 0 {
			cur, err := s.Database(db).Collection(coll).FindCursor(nil, storage.FindOptions{})
			if err != nil {
				return nil, err
			}
			return mongod.Iter(cur), nil
		}
		return s.Database(db).AggregateCursor(coll, shardStages)
	}

	its := make([]aggregate.Iterator, len(targets))
	closeAll := func() {
		for _, it := range its {
			if it != nil {
				it.Close()
			}
		}
	}
	if r.opts.Parallel {
		var wg sync.WaitGroup
		errs := make([]error, len(targets))
		for i, name := range targets {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				r.remoteCall()
				its[i], errs[i] = openShard(name)
			}(i, name)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("mongos: shard %s: %w", targets[i], err)
			}
		}
	} else {
		for i, name := range targets {
			r.remoteCall()
			it, err := openShard(name)
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("mongos: shard %s: %w", name, err)
			}
			its[i] = it
		}
	}
	r.recordRouting(targeted, 0)

	concat := &concatIter{r: r, names: targets}
	if r.opts.Parallel {
		concat.done = make(chan struct{})
		concat.chans = make([]chan []*bson.Doc, len(its))
		concat.errs = make([]error, len(its))
		for i, it := range its {
			ch := make(chan []*bson.Doc, 2)
			concat.chans[i] = ch
			go pumpIter(it, ch, concat.done, &concat.errs[i])
		}
	} else {
		concat.its = its
	}

	if len(mergeStages) == 0 {
		return concat, nil
	}
	mergePipeline, err := aggregate.Parse(mergeStages)
	if err != nil {
		concat.Close()
		return nil, err
	}
	primary := r.PrimaryShard()
	if primary == nil {
		concat.Close()
		return nil, fmt.Errorf("mongos: no shards registered")
	}
	return mongod.Results(mergePipeline.RunIter(concat, primary.Database(db).Env())), nil
}
