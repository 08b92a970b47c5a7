package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/changestream"
	"docstore/internal/driver"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/trace"
)

// DefaultCursorTimeout is how long an idle server-side cursor survives
// before it is reaped, mirroring the real server's cursor timeout. Clients
// that disconnect without exhausting or killing their cursors would
// otherwise pin their collection snapshots for the server's lifetime.
const DefaultCursorTimeout = 10 * time.Minute

// DefaultAwaitDataTimeout is how long a getMore on a change-stream cursor
// waits for the first event when the request carries no maxTimeMS.
const DefaultAwaitDataTimeout = time.Second

// TailableCursorTimeoutMultiple scales the idle timeout for live
// change-stream cursors: a tailable cursor is idle by design between events,
// so it is exempt from the normal window — but a client that stops issuing
// getMores entirely (every getMore refreshes the idle clock, events or not)
// is gone, and without any bound an abandoned watcher would pin its buffer
// and keep the whole server materializing events forever.
const TailableCursorTimeoutMultiple = 6

// ReplicatedBackend is the write path of a replica set: every write becomes
// one logged batch whose acknowledgement honours its write concern.
// *replset.ReplicaSet implements it; the wire package only needs this slice
// of it, which keeps the dependency arrow pointing at storage types.
type ReplicatedBackend interface {
	BulkWrite(db, coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult
}

// replHealthSource is the optional replication-health face of a replicated
// backend: *replset.ReplicaSet implements it, and serverStatus includes a
// per-member lag section when the attached backend does. An interface
// assertion keeps wire from importing replset.
type replHealthSource interface {
	HealthDocs() []*bson.Doc
}

// Server serves the wire protocol for a mongod.Server over TCP.
type Server struct {
	backend *mongod.Server
	// repl, when set, receives every write so acknowledgement can wait on
	// replica quorum; reads keep hitting backend (the primary).
	repl ReplicatedBackend
	// router, when set, turns this wire server into a query-router front
	// end (the mongos role, docstored -shards): data-plane requests fan out
	// across the cluster's shards, shardCollection declares a shard key, and
	// checkpoint becomes a cluster-consistent capture across every shard.
	// Introspection (stats, traces, currentOp) and change streams
	// keep reading the local backend.
	router *mongos.Router
	// defaultWC applies to write requests that carry no writeConcern.
	defaultWC storage.WriteConcern
	// tracer, when set, roots a span tree on every traced request; nil keeps
	// tracing off for free (see internal/trace).
	tracer *trace.Tracer
	// wm holds the per-op wire request counters and latency histograms.
	wm wireMetrics

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup

	// now is the cursor-idle clock; injectable so the reaping tests can
	// advance time explicitly instead of sleeping. It must be set before
	// the server starts handling requests.
	now func() time.Time

	// Server-side cursors for the getMore path. Cursors live until they are
	// exhausted, killed, idle past cursorTimeout, or the server closes.
	// Change-stream cursors are tailable: they never exhaust, and they are
	// exempt from idle reaping while their subscription is live.
	cursorMu      sync.Mutex
	cursors       map[int64]*openCursor
	nextCur       int64
	cursorTimeout time.Duration
}

// openCursor is one registered server-side cursor with its idle clock:
// either a result iterator (find/aggregate) or a tailable change-stream
// subscription.
type openCursor struct {
	it  aggregate.Iterator
	sub *changestream.Subscription
	// ns is the cursor's target namespace ("db.collection"): serverStatus
	// reports it so an operator can tell WHICH cursor is pinning a snapshot
	// and retaining superseded MVCC versions.
	ns       string
	lastUsed time.Time
	// inUse marks a change-stream cursor with a getMore in flight (the
	// awaitData wait happens outside cursorMu): concurrent getMores are
	// refused and the reaper leaves it alone.
	inUse bool
}

// close releases whichever stream the cursor holds.
func (oc *openCursor) close() {
	if oc.it != nil {
		oc.it.Close()
	}
	if oc.sub != nil {
		oc.sub.Close()
	}
}

// SetCursorTimeout overrides the idle timeout after which abandoned
// server-side cursors are reaped. Zero or negative durations are ignored.
// It must be called before the server starts handling requests.
func (s *Server) SetCursorTimeout(d time.Duration) {
	if d > 0 {
		s.cursorTimeout = d
	}
}

// SetReplicaSet routes writes through a replicated backend so their
// acknowledgement can wait on member quorum. backend should be the set's
// primary (reads are served from it directly). Call before the server
// starts handling requests.
func (s *Server) SetReplicaSet(r ReplicatedBackend) { s.repl = r }

// SetRouter attaches a query router: the server then serves the mongos role,
// fanning data-plane requests out across the router's shards. Mutually
// exclusive with SetReplicaSet. Call before the server starts handling
// requests.
func (s *Server) SetRouter(r *mongos.Router) { s.router = r }

// SetDefaultWriteConcern sets the concern applied to write requests that do
// not carry one. Call before the server starts handling requests.
func (s *Server) SetDefaultWriteConcern(wc storage.WriteConcern) { s.defaultWC = wc }

// NewServer wraps a document store server.
func NewServer(backend *mongod.Server) *Server {
	return &Server{
		backend:       backend,
		conns:         make(map[net.Conn]bool),
		cursors:       make(map[int64]*openCursor),
		cursorTimeout: DefaultCursorTimeout,
		now:           time.Now,
		wm:            newWireMetrics(),
	}
}

// reapCursorsLocked closes cursors idle past the timeout. The caller holds
// cursorMu. Reaping happens lazily on every cursor operation, so an
// abandoned cursor costs at most one timeout window of memory. A live
// change-stream cursor gets TailableCursorTimeoutMultiple windows instead:
// it is idle by design between events, and any getMore — even one that
// returns an empty batch — refreshes its clock, so a polling client keeps
// it alive indefinitely while a vanished client's watcher still ages out.
// One whose subscription already died (slow consumer, broker shutdown) ages
// out on the normal window.
func (s *Server) reapCursorsLocked() {
	deadline := s.now().Add(-s.cursorTimeout)
	tailableDeadline := s.now().Add(-TailableCursorTimeoutMultiple * s.cursorTimeout)
	for id, oc := range s.cursors {
		if oc.inUse {
			continue // a getMore is waiting on it right now
		}
		cutoff := deadline
		if oc.sub != nil && oc.sub.Alive() {
			cutoff = tailableDeadline
		}
		if oc.lastUsed.Before(cutoff) {
			oc.close()
			delete(s.cursors, id)
		}
	}
}

// ReapIdleCursors triggers one explicit reaping pass and returns the number
// of live cursors left. Reaping is lazy (piggybacked on cursor operations);
// this entry point lets operators and tests force a pass deterministically.
func (s *Server) ReapIdleCursors() int {
	s.cursorMu.Lock()
	defer s.cursorMu.Unlock()
	s.reapCursorsLocked()
	return len(s.cursors)
}

// registerCursor stores an open cursor and returns its id.
func (s *Server) registerCursor(oc *openCursor) int64 {
	s.cursorMu.Lock()
	defer s.cursorMu.Unlock()
	s.reapCursorsLocked()
	s.nextCur++
	id := s.nextCur
	oc.lastUsed = s.now()
	s.cursors[id] = oc
	return id
}

// getMoreCursor claims the cursor with the given id for a getMore. A result
// iterator is removed from the registry (the getMore re-registers it when a
// partial batch leaves it open, the pre-change-stream behaviour). A
// change-stream cursor instead STAYS registered and is marked in-use: its
// awaitData wait happens outside cursorMu, and keeping the entry visible is
// what lets a concurrent killCursors find and tear it down mid-wait — were
// it removed, a kill in the window would miss it and the subscription would
// leak forever.
func (s *Server) getMoreCursor(id int64) (*openCursor, bool) {
	s.cursorMu.Lock()
	defer s.cursorMu.Unlock()
	s.reapCursorsLocked()
	oc, ok := s.cursors[id]
	if !ok || oc.inUse {
		return nil, false // absent, or a concurrent getMore holds it
	}
	if oc.sub != nil {
		oc.inUse = true
		return oc, true
	}
	delete(s.cursors, id)
	return oc, true
}

// OpenCursors returns the number of live server-side cursors.
func (s *Server) OpenCursors() int {
	s.cursorMu.Lock()
	defer s.cursorMu.Unlock()
	return len(s.cursors)
}

// cursorStats renders every open server-side cursor for serverStatus: its
// id, target namespace, idle age and kind. Each open result cursor pins a
// storage snapshot, so this list is the set of suspects when the engine
// gauges show a version being retained.
func (s *Server) cursorStats() []any {
	now := s.now()
	s.cursorMu.Lock()
	ids := make([]int64, 0, len(s.cursors))
	for id := range s.cursors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]any, 0, len(ids))
	for _, id := range ids {
		oc := s.cursors[id]
		kind := "result"
		if oc.sub != nil {
			kind = "changeStream"
		}
		out = append(out, bson.D(
			"cursorId", id,
			"ns", oc.ns,
			"kind", kind,
			"idleMS", now.Sub(oc.lastUsed).Milliseconds(),
		))
	}
	s.cursorMu.Unlock()
	return out
}

// pullBatch reads up to n documents from the iterator.
func pullBatch(it aggregate.Iterator, n int) ([]*bson.Doc, error) {
	docs := make([]*bson.Doc, 0, n)
	for len(docs) < n {
		d, ok := it.Next()
		if !ok {
			return docs, it.Err()
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// cursorResponse serves the first batch of a cursor request and registers
// the cursor when it may have more to give.
func (s *Server) cursorResponse(ns string, it aggregate.Iterator, batchSize int) *Response {
	docs, err := pullBatch(it, batchSize)
	if err != nil {
		it.Close()
		return &Response{Error: err.Error()}
	}
	resp := &Response{OK: true, Docs: docs, N: int64(len(docs))}
	if len(docs) == batchSize {
		resp.CursorID = s.registerCursor(&openCursor{it: it, ns: ns})
	} else {
		it.Close()
	}
	return resp
}

// restFirst is a result cursor's stream behind the documents a reply had no
// room for.
type restFirst struct {
	rest []*bson.Doc
	aggregate.Iterator
}

func (r *restFirst) Next() (*bson.Doc, bool) {
	if len(r.rest) == 0 {
		return r.Iterator.Next()
	}
	d := r.rest[0]
	r.rest = r.rest[1:]
	return d, true
}

// keepRest keeps the documents a reply frame had no room for on a cursor and
// returns its id: the reply's own cursor, which then gives them before it
// gives anything else, or a new one over ns when the reply had none (the
// request named no batch size, or its cursor was exhausted by this batch).
func (s *Server) keepRest(ns string, cursorID int64, rest []*bson.Doc) int64 {
	s.cursorMu.Lock()
	if oc, ok := s.cursors[cursorID]; ok && oc.it != nil {
		oc.it = &restFirst{rest: rest, Iterator: oc.it}
		s.cursorMu.Unlock()
		return cursorID
	}
	s.cursorMu.Unlock()
	return s.registerCursor(&openCursor{it: aggregate.FromSlice(rest), ns: ns})
}

// watchBatchBytes is the encoded size at which a change-stream batch stops
// taking events, whatever batch size was asked for: a quarter of a frame,
// since the event that crosses it may carry two documents of the largest
// size, and a batch cannot be cut once drained.
const watchBatchBytes = maxFrameSize / 4

// drainWatch pulls up to batchSize events off a change-stream subscription,
// blocking up to maxWait for the first one (the awaitData contract) and
// collecting whatever else is already buffered. It renders events in their
// wire document form.
func drainWatch(sub *changestream.Subscription, batchSize int, maxWait time.Duration) ([]*bson.Doc, error) {
	docs := make([]*bson.Doc, 0, batchSize)
	size := 0
	for len(docs) < batchSize {
		ev, err := sub.Next(maxWait)
		if err != nil {
			return docs, err
		}
		if ev == nil {
			break
		}
		docs = append(docs, ev.Doc())
		if size += bson.EncodedSize(ev.Doc()); size > watchBatchBytes {
			break
		}
		maxWait = 0 // only the first event blocks
	}
	return docs, nil
}

// Listen starts accepting connections on addr ("127.0.0.1:0" picks a free
// port) and returns the bound address. Serving happens on background
// goroutines until Close is called.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops the listener, closes active connections and releases any
// server-side cursors.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cursorMu.Lock()
	for id, oc := range s.cursors {
		oc.close()
		delete(s.cursors, id)
	}
	s.cursorMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	reader := bufio.NewReader(conn)
	var buf []byte // the connection's one buffer: a request frame, then its reply
	for {
		var err error
		if buf, err = readFrame(reader, buf); err != nil {
			// Between frames the peer hung up, or Close closed the
			// connection; anything a peer sent that is not a frame is refused.
			if errors.Is(err, errFrameLength) || err == io.ErrUnexpectedEOF {
				s.refuseFrame(conn, err)
			}
			return
		}
		req, err := readRequest(buf)
		if err != nil {
			s.refuseFrame(conn, err)
			return
		}
		// req shares nothing with buf, so the reply can overwrite the request.
		resp := s.Handle(req)
		buf = resp.appendFrame(buf[:0], func(rest []*bson.Doc) int64 {
			return s.keepRest(req.DB+"."+req.Collection, resp.CursorID, rest)
		})
		if len(buf) > maxFrameSize {
			tooLarge := &Response{Error: fmt.Sprintf("reply of %d bytes exceeds the %d-byte frame limit", len(buf), maxFrameSize)}
			buf = tooLarge.appendFrame(buf[:0], nil)
		}
		if _, err := conn.Write(buf); err != nil {
			return
		}
		buf = recycle(buf)
	}
}

// refuseFrame is the end of a connection that sent something other than a
// request frame: the event is counted as a failed request of no known op,
// and the peer, if it still reads, is told why before serveConn closes the
// connection. Other connections are not affected.
func (s *Server) refuseFrame(conn net.Conn, reason error) {
	s.wm.observeRefused()
	refusal := &Response{Error: fmt.Sprintf("malformed frame, closing the connection: %v", reason)}
	_, _ = conn.Write(refusal.appendFrame(nil, nil)) // best effort: the peer may be gone
}

// Handle executes one request against the backend. It is exported so tests
// and in-process callers can drive the protocol without a socket.
//
// Handle owns the request's observability: it roots the trace span the
// lower layers hang their children off (carried down via the options
// structs, never on the wire) and records the per-op request counter,
// error counter and latency histogram.
func (s *Server) Handle(req *Request) *Response {
	start := s.now()
	if s.tracer != nil && traced(req.Op) {
		span := s.tracer.StartSpan("wire." + req.Op)
		span.SetAttr("db", req.DB)
		if req.Collection != "" {
			span.SetAttr("collection", req.Collection)
		}
		req.span = span
	}
	resp := s.handle(req)
	if req.span != nil {
		if resp.Error != "" {
			req.span.SetAttr("error", resp.Error)
		} else {
			req.span.SetAttr("n", resp.N)
		}
		req.span.Finish()
	}
	s.wm.observe(req.Op, s.now().Sub(start), resp.Error != "")
	return resp
}

func (s *Server) handle(req *Request) *Response {
	switch req.Op {
	case OpCurrentOp:
		// Introspection ops need no db and are never themselves traced, so a
		// currentOp listing shows real work, not the observer.
		views := filterViews(s.tracer.CurrentOps(), req.OpName, time.Duration(req.MinDurationUS)*time.Microsecond)
		return &Response{OK: true, Docs: viewDocs(views, int(req.Limit)), N: int64(len(views))}
	case OpGetTraces:
		// Filters run over the whole ring, then the limit applies — asking
		// for the 5 slowest inserts must not depend on what else happens to
		// sit at the head of the ring.
		limit := int(req.Limit)
		var views []trace.View
		if req.OpName == "" && req.MinDurationUS == 0 {
			views = s.tracer.Traces(limit)
		} else {
			// Only a filtered query pays for the whole-ring snapshot.
			views = filterViews(s.tracer.Traces(0), req.OpName, time.Duration(req.MinDurationUS)*time.Microsecond)
		}
		docs := viewDocs(views, limit)
		return &Response{OK: true, Docs: docs, N: int64(len(docs))}
	}
	if req.DB == "" && req.Op != OpPing && req.Op != OpCheckpoint {
		return &Response{Error: "db is required"}
	}
	// The deployment is chosen here, once: reads, counts, aggregates and
	// index and collection management go through the driver's Store, the
	// interface the thesis' programs run against a stand-alone server and a
	// sharded cluster unchanged; writes go through execBatch.
	var store driver.Store
	if s.router != nil {
		store = driver.NewSharded(s.router, req.DB)
	} else {
		store = driver.NewStandalone(s.backend.Database(req.DB))
	}
	switch req.Op {
	case OpPing:
		return &Response{OK: true}
	case OpInsert:
		if req.Doc == nil {
			return &Response{Error: "doc is required"}
		}
		return s.execWrite(req, []storage.WriteOp{storage.InsertWriteOp(req.Doc)}, true)
	case OpInsertMany:
		// Ordered on one server; through a router the unordered batch of
		// driver.Store's InsertMany — one parallel sub-batch per shard, where
		// ordered costs a round trip per run of same-shard documents.
		return s.execWrite(req, storage.InsertOps(req.Docs), s.router == nil)
	case OpUpdate:
		return s.execWrite(req, []storage.WriteOp{storage.UpdateWriteOp(query.UpdateSpec{
			Query: req.Filter, Update: req.Update, Upsert: req.Upsert, Multi: req.Multi,
		})}, true)
	case OpDelete:
		return s.execWrite(req, []storage.WriteOp{storage.DeleteWriteOp(req.Filter, req.Multi)}, true)
	case OpBulkWrite:
		wc, errResp := s.writeConcernFor(req)
		if errResp != nil {
			return errResp
		}
		ops := make([]storage.WriteOp, len(req.Docs))
		for i, opDoc := range req.Docs {
			op, err := decodeWriteOp(opDoc)
			if err != nil {
				return &Response{Error: fmt.Sprintf("bulkWrite op %d: %v", i, err)}
			}
			ops[i] = op
		}
		res := s.execBatch(req, ops, req.Ordered, wc)
		if res.DurabilityErr != nil && res.Attempted == 0 {
			// The batch could not even be journaled, so nothing was applied:
			// that is a failed request, not a result. A post-apply
			// durability failure instead rides in the result document as
			// writeConcernError, alongside the counters of what did apply.
			return &Response{Error: res.DurabilityErr.Error(), Result: encodeBulkResult(res)}
		}
		return &Response{
			OK:     true,
			N:      int64(res.Inserted + res.Modified + res.Upserted + res.Deleted),
			Result: encodeBulkResult(res),
		}
	case OpFind:
		opts, errResp := s.findOptions(req)
		if errResp != nil {
			return errResp
		}
		if req.BatchSize > 0 {
			opts.BatchSize = req.BatchSize
			cur, err := store.FindCursor(req.Collection, req.Filter, opts)
			if err != nil {
				return &Response{Error: err.Error()}
			}
			return s.cursorResponse(req.DB+"."+req.Collection, cur, req.BatchSize)
		}
		docs, err := store.Find(req.Collection, req.Filter, opts)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true, Docs: docs, N: int64(len(docs))}
	case OpCount:
		n, err := store.Count(req.Collection, req.Filter)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true, N: int64(n)}
	case OpAggregate:
		if req.BatchSize > 0 {
			it, err := store.AggregateCursor(req.Collection, req.Docs)
			if err != nil {
				return &Response{Error: err.Error()}
			}
			return s.cursorResponse(req.DB+"."+req.Collection, it, req.BatchSize)
		}
		docs, err := store.Aggregate(req.Collection, req.Docs)
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true, Docs: docs, N: int64(len(docs))}
	case OpWatch:
		sub, err := s.backend.Watch(req.DB, req.Collection, mongod.WatchOptions{
			Pipeline:    req.Docs,
			ResumeAfter: req.ResumeAfter,
		})
		if err != nil {
			return &Response{Error: err.Error()}
		}
		batchSize := req.BatchSize
		if batchSize <= 0 {
			batchSize = storage.DefaultBatchSize
		}
		// The first reply carries whatever is immediately available (the
		// resume replay, typically) without blocking; the client polls the
		// live tail with getMore.
		docs, err := drainWatch(sub, batchSize, 0)
		if err != nil {
			sub.Close()
			return &Response{Error: err.Error()}
		}
		id := s.registerCursor(&openCursor{sub: sub, ns: req.DB + "." + req.Collection})
		return &Response{OK: true, Docs: docs, N: int64(len(docs)), CursorID: id, ResumeToken: sub.ResumeToken()}
	case OpGetMore:
		oc, ok := s.getMoreCursor(req.CursorID)
		if !ok {
			return &Response{Error: fmt.Sprintf("cursor %d not found", req.CursorID)}
		}
		batchSize := req.BatchSize
		if batchSize <= 0 {
			batchSize = storage.DefaultBatchSize
		}
		if oc.sub != nil {
			return s.watchGetMore(req, oc, batchSize)
		}
		docs, err := pullBatch(oc.it, batchSize)
		if err != nil {
			oc.it.Close()
			return &Response{Error: err.Error()}
		}
		resp := &Response{OK: true, Docs: docs, N: int64(len(docs))}
		if len(docs) == batchSize {
			s.cursorMu.Lock()
			oc.lastUsed = s.now()
			s.cursors[req.CursorID] = oc
			s.cursorMu.Unlock()
			resp.CursorID = req.CursorID
		} else {
			oc.it.Close()
		}
		return resp
	case OpKillCursors:
		// Unlike takeCursor, a kill also claims a change-stream cursor
		// with a getMore in flight: closing the subscription unblocks the
		// parked awaitData wait, which then observes the removal.
		s.cursorMu.Lock()
		oc, ok := s.cursors[req.CursorID]
		if ok {
			delete(s.cursors, req.CursorID)
		}
		s.cursorMu.Unlock()
		if ok {
			// For a change-stream cursor this tears the subscription down:
			// the watcher detaches from the broker and its buffer is
			// released, so nothing keeps accumulating server-side.
			oc.close()
		}
		return &Response{OK: true, N: boolToN(ok)}
	case OpEnsureIndex:
		if err := store.EnsureIndex(req.Collection, req.Keys, req.Unique); err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true}
	case OpCheckpoint:
		if s.router != nil {
			return s.clusterCheckpoint()
		}
		st, err := s.backend.Checkpoint()
		if err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true, N: 1, Result: checkpointDoc(st)}
	case OpShardCollection:
		if s.router == nil {
			return &Response{Error: "shardCollection requires a query router (docstored -shards)"}
		}
		if req.Keys == nil {
			return &Response{Error: "keys is required"}
		}
		if _, err := s.router.EnableSharding(req.DB, req.Collection, req.Keys, 0); err != nil {
			return &Response{Error: err.Error()}
		}
		return &Response{OK: true}
	case OpDrop:
		return &Response{OK: true, N: boolToN(store.DropCollection(req.Collection))}
	case OpListColls:
		names := s.collectionNames(req.DB)
		docs := make([]*bson.Doc, len(names))
		for i, n := range names {
			docs[i] = bson.D("name", n)
		}
		return &Response{OK: true, Docs: docs, N: int64(len(names))}
	case OpStats:
		st := s.backend.Status()
		doc := bson.D(
			"name", st.Name,
			"databases", st.Databases,
			"collections", st.Collections,
			"documents", st.Documents,
			"dataSizeBytes", st.DataSizeBytes,
			"indexSizeBytes", st.IndexSizeBytes,
		)
		if broker := s.backend.ChangeStreams(); broker != nil {
			cs := broker.Stats()
			csDoc := bson.D(
				"watchers", cs.Watchers,
				"recordsPublished", cs.RecordsPublished,
				"eventsDelivered", cs.EventsDelivered,
				"slowConsumers", cs.SlowConsumers,
				"bufferedEvents", cs.BufferedEvents,
				"maxBufferDepth", cs.MaxBufferDepth,
			)
			// Per-watcher buffer depths: which consumer is heading toward
			// slow-consumer invalidation, and how close it is.
			if depths := broker.WatcherDepths(); len(depths) > 0 {
				arr := make([]any, len(depths))
				for i, d := range depths {
					arr[i] = bson.D(
						"id", d.ID, "db", d.DB, "coll", d.Coll,
						"buffered", d.Buffered, "capacity", d.Capacity,
					)
				}
				csDoc.Set("watcherDepths", arr)
			}
			doc.Set("changeStreams", csDoc)
		}
		// Durability health: write-path fsync latency and the group-commit
		// batch size distribution, present only when a WAL is attached.
		if fsync, batch, walStats, ok := s.backend.WALHealth(); ok {
			doc.Set("wal", bson.D(
				"appends", walStats.Appends,
				"syncs", walStats.Syncs,
				"fsyncP50US", fsync.P50().Microseconds(),
				"fsyncP99US", fsync.P99().Microseconds(),
				"fsyncCount", fsync.Count,
				"groupCommitMeanBatch", int64(batch.Mean()),
				"groupCommitBatches", batch.Count,
			))
		}
		// Replication health: per-member lag and apply recency, reached
		// through an interface so wire does not import replset.
		if hs, ok := s.repl.(replHealthSource); ok {
			if members := hs.HealthDocs(); len(members) > 0 {
				arr := make([]any, len(members))
				for i, m := range members {
					arr[i] = m
				}
				doc.Set("repl", bson.D("members", arr))
			}
		}
		// The MVCC engine's memory-economics gauges, plus every open
		// server-side cursor with its namespace and idle age: together they
		// answer "which cursor is retaining memory" — a cursor on the
		// namespace whose gauges show old pins and retained bytes is the
		// one holding superseded versions alive.
		doc.Set("engine", bson.D(
			"liveVersions", st.Engine.LiveVersions,
			"pinnedSnapshots", st.Engine.PinnedSnapshots,
			"oldestPinAgeMS", st.Engine.OldestPinAge.Milliseconds(),
			"retainedBytes", st.Engine.RetainedBytes,
			"pages", st.Engine.Pages,
			"pageSizeRecords", st.Engine.PageSizeRecords,
			"cowBytesCopied", st.Engine.COWBytesCopied,
			"cowBytesShared", st.Engine.COWBytesShared,
			"reclaimedBytes", st.Engine.ReclaimedBytes,
			"pagesCopied", st.Engine.PagesCopied,
			"pagesRecycled", st.Engine.PagesRecycled,
			"treeNodesCopied", st.Engine.TreeNodesCopied,
			"treeBytesCopied", st.Engine.TreeBytesCopied,
			"treeBytesShared", st.Engine.TreeBytesShared,
			"treeNodesReclaimed", st.Engine.TreeNodesReclaimed,
			"treeBytesReclaimed", st.Engine.TreeBytesReclaimed,
		))
		doc.Set("openCursors", s.cursorStats())
		return &Response{OK: true, Docs: []*bson.Doc{doc}, N: 1}
	default:
		return &Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// watchGetMore serves a getMore against a tailable change-stream cursor:
// wait up to the request's maxTimeMS for the first event (awaitData), return
// whatever accumulated, and keep the cursor open — the stream never
// exhausts. The caller's getMoreCursor left the cursor registered and marked
// in-use, so the reaper skips it and a concurrent killCursors can still
// find it and tear it down, which unblocks the wait here.
func (s *Server) watchGetMore(req *Request, oc *openCursor, batchSize int) *Response {
	maxWait := DefaultAwaitDataTimeout
	if req.MaxTimeMS > 0 {
		maxWait = time.Duration(req.MaxTimeMS) * time.Millisecond
	}
	docs, err := drainWatch(oc.sub, batchSize, maxWait)

	s.cursorMu.Lock()
	// The token must be read BEFORE inUse clears: this handler is the
	// subscription's sole consumer only while it holds the in-use claim,
	// and the instant the claim drops another getMore may start writing
	// the subscription's token.
	token := oc.sub.ResumeToken()
	_, live := s.cursors[req.CursorID]
	if live {
		if err != nil {
			delete(s.cursors, req.CursorID)
		} else {
			oc.inUse = false
			oc.lastUsed = s.now()
		}
	}
	s.cursorMu.Unlock()
	if err != nil {
		// Terminal (slow consumer, stream closed): the cursor is gone; the
		// client resumes from the token of its last successful batch, so
		// events buffered past that token are not lost, just re-fetched.
		oc.sub.Close()
		return &Response{Error: err.Error()}
	}
	if !live {
		// Killed while the wait was parked: report the kill, not a batch.
		return &Response{Error: fmt.Sprintf("cursor %d not found", req.CursorID)}
	}
	return &Response{OK: true, Docs: docs, N: int64(len(docs)), CursorID: req.CursorID, ResumeToken: token}
}

// findOptions builds the storage options of a find request. A non-nil
// second return is the error response of a malformed sort or projection.
func (s *Server) findOptions(req *Request) (storage.FindOptions, *Response) {
	opts := storage.FindOptions{
		Limit: req.Limit, Skip: req.Skip, Hint: req.Hint,
		AtVersion: req.AtVersion, Trace: req.span,
	}
	if req.Sort != nil {
		sortSpec, err := query.ParseSort(req.Sort)
		if err != nil {
			return opts, &Response{Error: err.Error()}
		}
		opts.Sort = sortSpec
	}
	if req.Projection != nil {
		proj, err := query.ParseProjection(req.Projection)
		if err != nil {
			return opts, &Response{Error: err.Error()}
		}
		opts.Projection = proj
	}
	return opts, nil
}

// collectionNames lists a database's collections in sorted order: the
// backend's, or with a router attached the union over every shard.
func (s *Server) collectionNames(db string) []string {
	if s.router == nil {
		return s.backend.Database(db).CollectionNames()
	}
	seen := make(map[string]bool)
	var names []string
	for _, shard := range s.router.ShardNames() {
		for _, n := range s.router.Shard(shard).Database(db).CollectionNames() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// checkpointDoc renders one server's checkpoint outcome.
func checkpointDoc(st mongod.CheckpointStats) *bson.Doc {
	return bson.D(
		"lsn", st.LSN,
		"collections", st.Collections,
		"segmentsPruned", st.SegmentsPruned,
		"skipped", st.Skipped,
	)
}

// clusterCheckpoint serves checkpoint on a router-attached server: one
// cluster-consistent capture, reported per shard in name order.
func (s *Server) clusterCheckpoint() *Response {
	st, err := s.router.Checkpoint()
	if err != nil {
		return &Response{Error: err.Error()}
	}
	shardNames := make([]string, 0, len(st.Shards))
	for name := range st.Shards {
		shardNames = append(shardNames, name)
	}
	sort.Strings(shardNames)
	result := bson.NewDoc(len(shardNames))
	for _, name := range shardNames {
		result.Set(name, checkpointDoc(st.Shards[name]))
	}
	return &Response{OK: true, N: int64(len(st.Shards)), Result: bson.D("shards", result)}
}

func boolToN(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// writeConcernFor validates and resolves a write request's concern: parse
// failures (garbage types, unknown fields, a non-document writeConcern)
// reject the request, an absent concern falls back to the server default,
// and w > 1 is refused outright on a standalone server — there is no second
// member that could ever acknowledge, so accepting it would hang or lie.
// {w: "majority"} is one member on a standalone and passes.
func (s *Server) writeConcernFor(req *Request) (storage.WriteConcern, *Response) {
	if req.invalidWC {
		return storage.WriteConcern{}, &Response{Error: "invalid writeConcern: must be a document"}
	}
	wc, err := storage.ParseWriteConcern(req.WriteConcern)
	if err != nil {
		return storage.WriteConcern{}, &Response{Error: err.Error()}
	}
	if wc.IsZero() {
		wc = s.defaultWC
	}
	if s.repl == nil && wc.W > 1 {
		return storage.WriteConcern{}, &Response{Error: fmt.Sprintf("writeConcern {w: %d} requires a replica set; this server is standalone", wc.W)}
	}
	return wc, nil
}

// execWrite serves insert, insertMany, update and delete: the request's ops
// as one batch, answered with the number of documents written — on failure,
// the number that were written all the same.
func (s *Server) execWrite(req *Request, ops []storage.WriteOp, ordered bool) *Response {
	wc, errResp := s.writeConcernFor(req)
	if errResp != nil {
		return errResp
	}
	res := s.execBatch(req, ops, ordered, wc)
	resp := &Response{N: int64(res.Inserted + res.Modified + res.Deleted)}
	if err := res.FirstError(); err != nil {
		resp.Error = err.Error()
	} else {
		resp.OK = true
	}
	return resp
}

// execBatch is the single write path behind every insert/insertMany/update/
// delete/bulkWrite request, with or without an acknowledgement contract: one
// logged batch, handed to the query router when one is attached, else to the
// replica set so the response can wait on quorum, else to the server itself —
// so the five ops cannot drift in how they route, trace or acknowledge.
func (s *Server) execBatch(req *Request, ops []storage.WriteOp, ordered bool, wc storage.WriteConcern) storage.BulkResult {
	opts := storage.BulkOptions{Ordered: ordered, Journaled: req.Journaled, WriteConcern: wc, Trace: req.span}
	switch {
	case s.router != nil:
		return s.router.BulkWrite(req.DB, req.Collection, ops, opts)
	case s.repl != nil:
		return s.repl.BulkWrite(req.DB, req.Collection, ops, opts)
	}
	return s.backend.Database(req.DB).BulkWrite(req.Collection, ops, opts)
}
