package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"docstore/internal/bson"
)

// Client is a wire-protocol client for a docstored server.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	reader *bufio.Reader
	buf    []byte // one buffer, reused: a request frame, then its reply
}

// Dial connects to a docstored server.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	return &Client{conn: conn, reader: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and waits for its response. Requests are serialized
// over the single connection.
func (c *Client) Do(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() { c.buf = recycle(c.buf) }()
	c.buf = req.appendFrame(c.buf[:0])
	if len(c.buf) > maxFrameSize {
		return nil, fmt.Errorf("wire: request of %d bytes exceeds the %d-byte frame limit", len(c.buf), maxFrameSize)
	}
	if _, err := c.conn.Write(c.buf); err != nil {
		return nil, err
	}
	var err error
	if c.buf, err = readFrame(c.reader, c.buf); err != nil {
		return nil, err
	}
	resp, err := readResponse(c.buf)
	if err != nil {
		return nil, fmt.Errorf("wire: malformed response: %w", err)
	}
	if !resp.OK {
		return resp, fmt.Errorf("wire: server error: %s", resp.Error)
	}
	return resp, nil
}

// docs sends a request whose answer is a list of documents and returns all
// of them. A result too large for one frame arrives as the documents that fit
// and a cursor over the rest, which is drained here.
func (c *Client) docs(req *Request) ([]*bson.Doc, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.CursorID == 0 {
		return resp.Docs, nil
	}
	rest := &Cursor{c: c, db: req.DB, id: resp.CursorID, batch: resp.Docs}
	return rest.All()
}

// Ping checks connectivity.
func (c *Client) Ping() error {
	_, err := c.Do(&Request{Op: OpPing})
	return err
}

// Insert inserts one document.
func (c *Client) Insert(db, coll string, doc *bson.Doc) error {
	_, err := c.Do(&Request{Op: OpInsert, DB: db, Collection: coll, Doc: doc})
	return err
}

// InsertWC is Insert at an explicit write concern, e.g.
// bson.D("w", "majority", "wtimeout", 1000). The server fails the request
// when the concern is malformed or cannot be satisfied in time.
func (c *Client) InsertWC(db, coll string, doc *bson.Doc, wc *bson.Doc) error {
	_, err := c.Do(&Request{Op: OpInsert, DB: db, Collection: coll, Doc: doc, WriteConcern: wc})
	return err
}

// InsertMany inserts a batch of documents.
func (c *Client) InsertMany(db, coll string, docs []*bson.Doc) (int64, error) {
	resp, err := c.Do(&Request{Op: OpInsertMany, DB: db, Collection: coll, Docs: docs})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Find runs a query.
func (c *Client) Find(db, coll string, filter, sort *bson.Doc, limit int) ([]*bson.Doc, error) {
	return c.docs(&Request{Op: OpFind, DB: db, Collection: coll, Filter: filter, Sort: sort, Limit: limit})
}

// FindWithHint is Find forcing the named index through the wire protocol's
// "hint" field. A hint naming no index on the collection fails the request
// with the server's unknown-index error rather than silently degrading to a
// collection scan.
func (c *Client) FindWithHint(db, coll string, filter, sort *bson.Doc, hint string, limit int) ([]*bson.Doc, error) {
	return c.docs(&Request{Op: OpFind, DB: db, Collection: coll, Filter: filter, Sort: sort, Hint: hint, Limit: limit})
}

// Checkpoint asks the server to take a durable checkpoint now. Against a
// stand-alone server it captures and streams one checkpoint; against a
// router-fronted cluster it takes a cluster-consistent checkpoint across
// every shard. The returned document carries the capture LSNs.
func (c *Client) Checkpoint() (*bson.Doc, error) {
	resp, err := c.Do(&Request{Op: OpCheckpoint})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// ShardCollection declares a collection sharded on the key specification,
// so a router-fronted deployment hash-partitions it across shards. A
// stand-alone server rejects it.
func (c *Client) ShardCollection(db, coll string, keys *bson.Doc) error {
	_, err := c.Do(&Request{Op: OpShardCollection, DB: db, Collection: coll, Keys: keys})
	return err
}

// Count counts matching documents.
func (c *Client) Count(db, coll string, filter *bson.Doc) (int64, error) {
	resp, err := c.Do(&Request{Op: OpCount, DB: db, Collection: coll, Filter: filter})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Update applies an update and returns the modified count.
func (c *Client) Update(db, coll string, filter, update *bson.Doc, multi, upsert bool) (int64, error) {
	resp, err := c.Do(&Request{Op: OpUpdate, DB: db, Collection: coll, Filter: filter, Update: update, Multi: multi, Upsert: upsert})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Delete removes matching documents and returns the removed count.
func (c *Client) Delete(db, coll string, filter *bson.Doc, multi bool) (int64, error) {
	resp, err := c.Do(&Request{Op: OpDelete, DB: db, Collection: coll, Filter: filter, Multi: multi})
	if err != nil {
		return 0, err
	}
	return resp.N, nil
}

// Aggregate runs an aggregation pipeline.
func (c *Client) Aggregate(db, coll string, stages []*bson.Doc) ([]*bson.Doc, error) {
	return c.docs(&Request{Op: OpAggregate, DB: db, Collection: coll, Docs: stages})
}

// Cursor is a client-side cursor over a server-side result stream: it holds
// the current batch and issues getMore requests as the caller consumes it,
// so the client never materializes more than one batch.
type Cursor struct {
	c         *Client
	db        string
	id        int64 // 0 once the server reports exhaustion
	batchSize int
	batch     []*bson.Doc
	pos       int
	err       error
	closed    bool
}

// FindCursor opens a cursor over a find. batchSize <= 0 uses the server's
// default batch size for the initial reply.
func (c *Client) FindCursor(db, coll string, filter, sort *bson.Doc, limit, batchSize int) (*Cursor, error) {
	if batchSize <= 0 {
		batchSize = 101
	}
	resp, err := c.Do(&Request{Op: OpFind, DB: db, Collection: coll, Filter: filter, Sort: sort, Limit: limit, BatchSize: batchSize})
	if err != nil {
		return nil, err
	}
	return &Cursor{c: c, db: db, id: resp.CursorID, batchSize: batchSize, batch: resp.Docs}, nil
}

// AggregateCursor opens a cursor over an aggregation pipeline.
func (c *Client) AggregateCursor(db, coll string, stages []*bson.Doc, batchSize int) (*Cursor, error) {
	if batchSize <= 0 {
		batchSize = 101
	}
	resp, err := c.Do(&Request{Op: OpAggregate, DB: db, Collection: coll, Docs: stages, BatchSize: batchSize})
	if err != nil {
		return nil, err
	}
	return &Cursor{c: c, db: db, id: resp.CursorID, batchSize: batchSize, batch: resp.Docs}, nil
}

// Next returns the next document, issuing getMore requests as needed.
func (cur *Cursor) Next() (*bson.Doc, bool) {
	for cur.pos >= len(cur.batch) {
		if cur.closed || cur.id == 0 {
			return nil, false
		}
		resp, err := cur.c.Do(&Request{Op: OpGetMore, DB: cur.db, CursorID: cur.id, BatchSize: cur.batchSize})
		if err != nil {
			cur.err = err
			cur.id = 0
			cur.closed = true
			return nil, false
		}
		cur.batch, cur.pos = resp.Docs, 0
		cur.id = resp.CursorID
	}
	d := cur.batch[cur.pos]
	cur.pos++
	return d, true
}

// Err returns the error that terminated iteration, if any.
func (cur *Cursor) Err() error { return cur.err }

// Close releases the server-side cursor when one is still open.
func (cur *Cursor) Close() {
	if cur.closed {
		return
	}
	cur.closed = true
	if cur.id != 0 {
		_, _ = cur.c.Do(&Request{Op: OpKillCursors, DB: cur.db, CursorID: cur.id})
		cur.id = 0
	}
	cur.batch = nil
}

// All drains the remaining documents and closes the cursor.
func (cur *Cursor) All() ([]*bson.Doc, error) {
	var out []*bson.Doc
	for {
		d, ok := cur.Next()
		if !ok {
			break
		}
		out = append(out, d)
	}
	err := cur.Err()
	cur.Close()
	return out, err
}

// WatchCursor is a client-side tailable cursor over a server-side change
// stream: Next polls the server with awaitData getMores and hands back one
// event document at a time, tracking the post-batch resume token so the
// caller can resume after a disconnect with no loss or duplication.
type WatchCursor struct {
	c         *Client
	db        string
	id        int64
	batchSize int
	batch     []*bson.Doc
	pos       int
	token     string
	err       error
	closed    bool
}

// Watch opens a change stream over db/coll (coll == "" watches the whole
// database). pipeline is an optional list of $match stages; resumeAfter, when
// non-empty, resumes strictly after a previous stream's token.
func (c *Client) Watch(db, coll string, pipeline []*bson.Doc, resumeAfter string, batchSize int) (*WatchCursor, error) {
	if batchSize <= 0 {
		batchSize = 101
	}
	resp, err := c.Do(&Request{Op: OpWatch, DB: db, Collection: coll, Docs: pipeline, ResumeAfter: resumeAfter, BatchSize: batchSize})
	if err != nil {
		return nil, err
	}
	w := &WatchCursor{c: c, db: db, id: resp.CursorID, batchSize: batchSize, batch: resp.Docs, token: resumeAfter}
	if len(resp.Docs) == 0 {
		// Seed from the post-batch token only when there is no batch to
		// consume: with events in hand, the cursor's token must track
		// what the caller actually consumed (each event's _id), or a
		// resume taken before draining the batch would skip it.
		w.token = resp.ResumeToken
	}
	return w, nil
}

// Next returns the next event document, issuing a getMore that waits up to
// maxWait server-side when nothing is buffered. (nil, nil) means the wait
// elapsed with the stream still live.
func (w *WatchCursor) Next(maxWait time.Duration) (*bson.Doc, error) {
	if w.pos >= len(w.batch) {
		if w.closed {
			return nil, w.err
		}
		req := &Request{Op: OpGetMore, DB: w.db, CursorID: w.id, BatchSize: w.batchSize}
		// The protocol's maxTimeMS: 0 means "server default" (a 1-second
		// awaitData wait), so a poll (maxWait <= 0) or a sub-millisecond
		// wait is sent as the minimum expressible bound instead — never
		// the default, which would block up to 2000x longer than asked.
		ms := int(maxWait / time.Millisecond)
		if ms <= 0 {
			ms = 1
		}
		req.MaxTimeMS = ms
		resp, err := w.c.Do(req)
		if err != nil {
			w.err = err
			w.closed = true
			return nil, err
		}
		if len(resp.Docs) == 0 && resp.ResumeToken != "" {
			w.token = resp.ResumeToken
		}
		w.batch, w.pos = resp.Docs, 0
		if len(w.batch) == 0 {
			return nil, nil
		}
	}
	d := w.batch[w.pos]
	w.pos++
	// Track the token per consumed event (each event's _id is its token):
	// a close mid-batch then resumes after what was actually consumed, not
	// after the batch's undelivered tail.
	if tok, ok := d.Get("_id"); ok {
		if s, isStr := tok.(string); isStr {
			w.token = s
		}
	}
	return d, nil
}

// ResumeToken returns the stream's post-batch resume token: pass it as
// resumeAfter to a new Watch to continue after everything this cursor's
// batches contained.
func (w *WatchCursor) ResumeToken() string { return w.token }

// ErrWatchCursorClosed is what Next returns once the cursor was closed
// locally: a terminal error, so consumer poll loops exit instead of spinning
// on the (nil, nil) "stream quiet" signal forever.
var ErrWatchCursorClosed = errors.New("wire: watch cursor closed")

// Close kills the server-side cursor, tearing down its subscription.
func (w *WatchCursor) Close() {
	if w.closed {
		return
	}
	w.closed = true
	if w.err == nil {
		w.err = ErrWatchCursorClosed
	}
	_, _ = w.c.Do(&Request{Op: OpKillCursors, DB: w.db, CursorID: w.id})
	w.batch = nil
}

// EnsureIndex creates an index.
func (c *Client) EnsureIndex(db, coll string, keys *bson.Doc, unique bool) error {
	_, err := c.Do(&Request{Op: OpEnsureIndex, DB: db, Collection: coll, Keys: keys, Unique: unique})
	return err
}

// ListCollections lists collection names.
func (c *Client) ListCollections(db string) ([]string, error) {
	resp, err := c.Do(&Request{Op: OpListColls, DB: db})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(resp.Docs))
	for _, d := range resp.Docs {
		if v, ok := d.Get("name"); ok {
			if s, isStr := v.(string); isStr {
				names = append(names, s)
			}
		}
	}
	return names, nil
}

// Drop removes a collection.
func (c *Client) Drop(db, coll string) error {
	_, err := c.Do(&Request{Op: OpDrop, DB: db, Collection: coll})
	return err
}

// CurrentOp lists the server's in-flight operations as span-tree documents,
// oldest first (empty when the server has no tracer). limit <= 0 returns all.
func (c *Client) CurrentOp(limit int) ([]*bson.Doc, error) {
	resp, err := c.Do(&Request{Op: OpCurrentOp, Limit: limit})
	if err != nil {
		return nil, err
	}
	return resp.Docs, nil
}

// Traces returns up to limit completed trace trees, most recent first
// (limit <= 0 drains the server's whole retention ring).
func (c *Client) Traces(limit int) ([]*bson.Doc, error) {
	resp, err := c.Do(&Request{Op: OpGetTraces, Limit: limit})
	if err != nil {
		return nil, err
	}
	return resp.Docs, nil
}

// TraceFilter narrows a currentOp/getTraces listing. The zero value keeps
// everything.
type TraceFilter struct {
	// OpName keeps only traces whose root span name starts with the prefix
	// ("wire.insert"; "wire.ins" also matches).
	OpName string
	// MinDuration keeps only traces at least this long (elapsed-so-far for
	// in-flight ops). Sub-microsecond precision is lost on the wire.
	MinDuration time.Duration
	// Limit caps the result after filtering; <= 0 returns everything that
	// matched.
	Limit int
}

// CurrentOpFiltered lists in-flight operations matching the filter.
func (c *Client) CurrentOpFiltered(f TraceFilter) ([]*bson.Doc, error) {
	resp, err := c.Do(&Request{
		Op: OpCurrentOp, Limit: f.Limit,
		OpName: f.OpName, MinDurationUS: f.MinDuration.Microseconds(),
	})
	if err != nil {
		return nil, err
	}
	return resp.Docs, nil
}

// TracesFiltered returns completed trace trees matching the filter, most
// recent first.
func (c *Client) TracesFiltered(f TraceFilter) ([]*bson.Doc, error) {
	resp, err := c.Do(&Request{
		Op: OpGetTraces, Limit: f.Limit,
		OpName: f.OpName, MinDurationUS: f.MinDuration.Microseconds(),
	})
	if err != nil {
		return nil, err
	}
	return resp.Docs, nil
}

// Stats returns the server status summary document.
func (c *Client) Stats(db string) (*bson.Doc, error) {
	resp, err := c.Do(&Request{Op: OpStats, DB: db})
	if err != nil {
		return nil, err
	}
	if len(resp.Docs) == 0 {
		return nil, fmt.Errorf("wire: empty stats response")
	}
	return resp.Docs[0], nil
}
