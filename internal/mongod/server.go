// Package mongod implements the stand-alone document store server: named
// databases holding collections, CRUD and aggregation entry points, index
// management, per-operation counters and latency histograms, and server
// statistics. It is the process-level analogue of the mongod daemon
// described in §2.1.3.1 of the thesis.
package mongod

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/index"
	"docstore/internal/metrics"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/trace"
	"docstore/internal/wal"
)

// Options configures a server.
type Options struct {
	// Name identifies the server in cluster listings (e.g. "Shard1").
	Name string
	// RAMBytes is the advertised RAM capacity, used by the working-set and
	// shard-count calculations (§2.1.3.2). Zero means unspecified.
	RAMBytes int64
	// DiskBytes is the advertised disk capacity. Zero means unspecified.
	DiskBytes int64
}

// Server is a stand-alone document store instance.
type Server struct {
	opts Options

	mu  sync.RWMutex
	dbs map[string]*Database

	// om holds the always-on per-op counters and latency histograms the
	// /metrics endpoint exports (see metrics.go). Built at construction;
	// recording is lock-free.
	om opMetrics

	// clock, when non-nil, replaces the wall clock for op timing. Tests
	// inject one (before the server serves operations) so duration
	// assertions are deterministic.
	clock func() time.Time

	// durable, when non-nil, holds the write-ahead log every collection
	// journals through (see durability.go). It is read lock-free on the
	// write path.
	durable atomic.Pointer[durableState]
}

// NewServer creates an empty server.
func NewServer(opts Options) *Server {
	if opts.Name == "" {
		opts.Name = "mongod"
	}
	s := &Server{opts: opts, dbs: make(map[string]*Database), om: newOpMetrics()}
	s.om.registry.AddGaugeSource("docstore", func() []metrics.Gauge {
		return s.EngineGauges().Snapshot()
	})
	return s
}

// Name returns the server name.
func (s *Server) Name() string { return s.opts.Name }

// Options returns the server options.
func (s *Server) Options() Options { return s.opts }

// lookupDatabase returns the named database without creating it, so
// observers (checkpoints, stats) cannot resurrect a concurrently dropped
// database as an empty shell.
func (s *Server) lookupDatabase(name string) (*Database, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	db, ok := s.dbs[name]
	return db, ok
}

// Database returns the named database, creating it when absent.
func (s *Server) Database(name string) *Database {
	s.mu.Lock()
	defer s.mu.Unlock()
	db, ok := s.dbs[name]
	if !ok {
		db = newDatabase(name, s)
		s.dbs[name] = db
	}
	return db
}

// DatabaseNames lists existing databases in sorted order.
func (s *Server) DatabaseNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CollectionNames lists the named database's collections in sorted order
// without creating the database: none when it does not exist.
func (s *Server) CollectionNames(db string) []string {
	d, ok := s.lookupDatabase(db)
	if !ok {
		return nil
	}
	return d.CollectionNames()
}

// DropDatabase removes the named database and reports whether it existed.
// With durability enabled the drop is journaled under the same lock that
// removes it — so it cannot interleave with writes to a recreated same-name
// database — and the drop is refused (false) if the record cannot enter the
// log, since recovery would otherwise resurrect the data.
func (s *Server) DropDatabase(name string) bool {
	s.mu.Lock()
	db, ok := s.dbs[name]
	if !ok {
		s.mu.Unlock()
		return false
	}
	delete(s.dbs, name)
	// Seal every collection's journal before logging the drop: detaching
	// waits out any writer holding the collection lock, so every record of
	// the dropped incarnation — even from a writer that resolved its
	// *Collection before the drop — has a lower LSN than the drop record.
	for _, coll := range db.Collections() {
		coll.SetJournal(nil)
	}
	commit, err := s.logStructuralLocked(wal.KindDropDatabase, name, "")
	if err != nil {
		s.dbs[name] = db
		s.reattachJournals(db)
		s.mu.Unlock()
		return false
	}
	s.mu.Unlock()
	if commit != nil {
		// A wait failure here means "not durable yet", not "not logged";
		// the record is buffered and syncs with the next flush, the same
		// window every non-journaled write has. The notification publishes
		// the dropDatabase event and advances the change-stream frontier.
		_ = commit.Wait(false)
		commit.Notify()
	}
	return true
}

// reattachJournals re-wires a database's collections to the WAL after a
// failed drop restored it. The caller holds s.mu.
func (s *Server) reattachJournals(db *Database) {
	ds := s.durable.Load()
	if ds == nil {
		return
	}
	for _, name := range db.CollectionNames() {
		db.Collection(name).SetJournal(&collJournal{w: ds.wal, broker: ds.broker, db: db.name, coll: name})
	}
}

// WorkingSetBytes sums data and index sizes across all databases: the
// working-set measure used to size shards in §2.1.3.2.
func (s *Server) WorkingSetBytes() int64 {
	s.mu.RLock()
	names := make([]*Database, 0, len(s.dbs))
	for _, db := range s.dbs {
		names = append(names, db)
	}
	s.mu.RUnlock()
	var total int64
	for _, db := range names {
		total += db.WorkingSetBytes()
	}
	return total
}

// DocsExamined sums the documents examined by read cursors across every
// collection of the server: a deterministic work measure the experiment
// harness compares across data models without wall-clock noise.
func (s *Server) DocsExamined() int64 {
	s.mu.RLock()
	dbs := make([]*Database, 0, len(s.dbs))
	for _, db := range s.dbs {
		dbs = append(dbs, db)
	}
	s.mu.RUnlock()
	var total int64
	for _, db := range dbs {
		for _, coll := range db.Collections() {
			total += coll.Stats().DocsExamined
		}
	}
	return total
}

// ServerStatus summarizes the server state.
type ServerStatus struct {
	Name            string
	Databases       int
	Collections     int
	Documents       int
	DataSizeBytes   int64
	IndexSizeBytes  int64
	WorkingSetBytes int64
	RAMBytes        int64
	DiskBytes       int64
	// RAMPressure is working set / RAM; above 1.0 the thesis predicts the
	// working set no longer fits and reads hit "disk".
	RAMPressure float64
	// Engine aggregates the MVCC engine's memory-economics gauges across
	// every collection: live versions, pinned snapshots and copy-on-write
	// traffic (see storage.EngineStats).
	Engine storage.EngineStats
}

// Status computes the current server status.
func (s *Server) Status() ServerStatus {
	s.mu.RLock()
	dbs := make([]*Database, 0, len(s.dbs))
	for _, db := range s.dbs {
		dbs = append(dbs, db)
	}
	s.mu.RUnlock()

	st := ServerStatus{
		Name:      s.opts.Name,
		Databases: len(dbs),
		RAMBytes:  s.opts.RAMBytes,
		DiskBytes: s.opts.DiskBytes,
	}
	for _, db := range dbs {
		for _, coll := range db.Collections() {
			cs := coll.Stats()
			st.Collections++
			st.Documents += cs.Count
			st.DataSizeBytes += int64(cs.DataSizeBytes)
			st.IndexSizeBytes += int64(cs.IndexSizeBytes)
			st.Engine.Add(coll.EngineStats())
		}
	}
	st.WorkingSetBytes = st.DataSizeBytes + st.IndexSizeBytes
	if st.RAMBytes > 0 {
		st.RAMPressure = float64(st.WorkingSetBytes) / float64(st.RAMBytes)
	}
	return st
}

// EngineGauges renders the server's aggregated MVCC engine gauges as a
// metrics gauge set — the form the reporting and shell layers print. The
// gauge names mirror the serverStatus engine subdocument.
func (s *Server) EngineGauges() *metrics.GaugeSet {
	e := s.Status().Engine
	g := metrics.NewGaugeSet()
	g.Set("engine.liveVersions", int64(e.LiveVersions), "")
	g.Set("engine.pinnedSnapshots", int64(e.PinnedSnapshots), "")
	g.Set("engine.pages", int64(e.Pages), "")
	g.Set("engine.cowBytesCopied", e.COWBytesCopied, "bytes")
	g.Set("engine.cowBytesShared", e.COWBytesShared, "bytes")
	g.Set("engine.pagesCopied", e.PagesCopied, "")
	g.Set("engine.treeNodesCopied", e.TreeNodesCopied, "")
	g.Set("engine.treeBytesCopied", e.TreeBytesCopied, "bytes")
	g.Set("engine.treeBytesShared", e.TreeBytesShared, "bytes")
	return g
}

// Database is a named set of collections on a server.
type Database struct {
	name   string
	server *Server

	mu    sync.RWMutex
	colls map[string]*storage.Collection
}

func newDatabase(name string, server *Server) *Database {
	return &Database{name: name, server: server, colls: make(map[string]*storage.Collection)}
}

// Name returns the database name.
func (db *Database) Name() string { return db.name }

// Server returns the server the database belongs to; the driver's
// stand-alone adapter uses it to reach server-scoped entry points (Watch).
func (db *Database) Server() *Server { return db.server }

// Collection returns the named collection, creating it when absent. On a
// durable server a new collection is born with its journal attached, so its
// very first write is already logged.
func (db *Database) Collection(name string) *storage.Collection {
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.colls[name]
	if !ok {
		c = storage.NewCollection(name)
		if ds := db.server.durable.Load(); ds != nil {
			c.SetJournal(&collJournal{w: ds.wal, broker: ds.broker, db: db.name, coll: name})
		}
		db.colls[name] = c
	}
	return c
}

// HasCollection reports whether the collection exists without creating it.
func (db *Database) HasCollection(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.colls[name]
	return ok
}

// CollectionNames lists collections in sorted order.
func (db *Database) CollectionNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.colls))
	for n := range db.colls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Collections returns the collections in name order. Collections dropped
// between the name listing and the lookup are skipped, never returned as
// nil entries.
func (db *Database) Collections() []*storage.Collection {
	names := db.CollectionNames()
	out := make([]*storage.Collection, 0, len(names))
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, n := range names {
		if c, ok := db.colls[n]; ok {
			out = append(out, c)
		}
	}
	return out
}

// DropCollection removes the named collection and reports whether it
// existed. With durability enabled the drop is journaled under the same
// lock that removes it — a recreated same-name collection must re-enter
// this lock, so its writes always log after the drop record — and the drop
// is refused (false) if the record cannot enter the log, since recovery
// would otherwise resurrect the collection.
func (db *Database) DropCollection(name string) bool {
	db.mu.Lock()
	c, ok := db.colls[name]
	if !ok {
		db.mu.Unlock()
		return false
	}
	delete(db.colls, name)
	// Seal the journal before logging the drop: SetJournal takes the
	// collection's write lock, so it waits out any in-flight writer — even
	// one that resolved the *Collection before the drop — guaranteeing
	// every record of this incarnation has a lower LSN than the drop
	// record, and no acknowledged write can be destroyed by its replay.
	c.SetJournal(nil)
	commit, err := db.server.logStructuralLocked(wal.KindDropCollection, db.name, name)
	if err != nil {
		db.colls[name] = c
		if ds := db.server.durable.Load(); ds != nil {
			c.SetJournal(&collJournal{w: ds.wal, broker: ds.broker, db: db.name, coll: name})
		}
		db.mu.Unlock()
		return false
	}
	db.mu.Unlock()
	if commit != nil {
		// See DropDatabase: a wait failure is a durability delay, not a
		// lost record. The notification publishes the drop event.
		_ = commit.Wait(false)
		commit.Notify()
	}
	return true
}

// WorkingSetBytes sums data and index sizes over the database's collections.
func (db *Database) WorkingSetBytes() int64 {
	var total int64
	for _, c := range db.Collections() {
		total += int64(c.WorkingSetBytes())
	}
	return total
}

// ---------------------------------------------------------------------------
// Operation entry points (timed into the per-op metrics)

// Insert adds a document to the named collection. Like Update and Delete it
// is a one-op ordered BulkWrite, so a scalar write is counted, timed, traced
// and journaled by the same code as a batch.
func (db *Database) Insert(coll string, doc *bson.Doc) (any, error) {
	res := db.BulkWrite(coll, []storage.WriteOp{storage.InsertWriteOp(doc)}, storage.BulkOptions{Ordered: true})
	return res.InsertedID()
}

// InsertMany adds documents to the named collection. It is a thin wrapper
// over the bulk-write engine: one timed batch, one lock acquisition.
func (db *Database) InsertMany(coll string, docs []*bson.Doc) ([]any, error) {
	res := db.BulkWrite(coll, storage.InsertOps(docs), storage.BulkOptions{Ordered: true})
	return res.CompactInsertedIDs(), res.FirstError()
}

// BulkWrite executes a mixed batch of writes against the named collection
// and returns once it is acknowledged under the journal's sync policy: it is
// BulkApply followed by the wait on its PendingBulk.
func (db *Database) BulkWrite(coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	res, pending := db.BulkApply(coll, ops, opts)
	if err := pending.Wait(); err != nil {
		res.DurabilityErr = err
	}
	return res
}

// PendingBulk is a bulk write that has been journaled and applied but not
// yet acknowledged: the journal wait, the op's timing and the
// "mongod.bulkWrite" span are all still open. Wait must be called exactly
// once, holding no lock that other writers need (see
// storage.PendingCommit).
type PendingBulk struct {
	commit storage.PendingCommit
	span   *trace.Span
	server *Server
	op     string
	start  time.Time
}

// Wait blocks until the batch's journal record is durable, then records the
// batch's duration and closes its span, so both cover the whole
// acknowledged write.
func (p PendingBulk) Wait() error {
	err := p.commit.Wait()
	p.server.record(p.op, p.start)
	p.span.Finish()
	return err
}

// BulkApply is the ordered half of BulkWrite (see storage.BulkApply): the
// batch is journaled, applied and visible when it returns, and the caller
// owes the returned PendingBulk one Wait. A one-op batch is timed under its
// op's kind ("insert", "update", "delete"), whichever entry point or write
// concern produced it; any other batch is one "bulkWrite".
func (db *Database) BulkApply(coll string, ops []storage.WriteOp, opts storage.BulkOptions) (storage.BulkResult, PendingBulk) {
	span := opts.Trace.Child("mongod.bulkWrite")
	span.SetAttr("db", db.name)
	span.SetAttr("collection", coll)
	span.SetAttr("ops", len(ops))
	opts.Trace = span
	op := "bulkWrite"
	if len(ops) == 1 {
		op = ops[0].Kind.String()
	}
	start := db.server.clockTime()
	res, commit := db.Collection(coll).BulkApply(ops, opts)
	return res, PendingBulk{commit: commit, span: span, server: db.server, op: op, start: start}
}

// Find runs a query against the named collection.
func (db *Database) Find(coll string, filter *bson.Doc, opts storage.FindOptions) ([]*bson.Doc, error) {
	docs, _, err := db.FindWithPlan(coll, filter, opts)
	return docs, err
}

// FindWithPlan runs a query and returns its execution plan (the explain
// entry point): access path, work counters, and the snapshot version /
// isolation level of the scan.
func (db *Database) FindWithPlan(coll string, filter *bson.Doc, opts storage.FindOptions) ([]*bson.Doc, storage.Plan, error) {
	span := opts.Trace.Child("mongod.find")
	span.SetAttr("db", db.name)
	span.SetAttr("collection", coll)
	opts.Trace = span
	start := db.server.clockTime()
	docs, plan, err := db.Collection(coll).FindWithPlan(filter, opts)
	db.server.record("find", start)
	span.SetAttr("keysExamined", plan.KeysExamined)
	span.SetAttr("docsExamined", plan.DocsExamined)
	span.Finish()
	return docs, plan, err
}

// Update applies an update specification against the named collection.
func (db *Database) Update(coll string, spec query.UpdateSpec) (storage.UpdateResult, error) {
	res := db.BulkWrite(coll, []storage.WriteOp{storage.UpdateWriteOp(spec)}, storage.BulkOptions{Ordered: true})
	return res.UpdateResult()
}

// Delete removes matching documents from the named collection.
func (db *Database) Delete(coll string, filter *bson.Doc, multi bool) (int, error) {
	res := db.BulkWrite(coll, []storage.WriteOp{storage.DeleteWriteOp(filter, multi)}, storage.BulkOptions{Ordered: true})
	return res.Deleted, res.FirstError()
}

// EnsureIndex creates an index on the named collection.
func (db *Database) EnsureIndex(coll string, spec *bson.Doc, unique bool) (*index.Index, error) {
	return db.Collection(coll).EnsureIndexDoc(spec, unique)
}

// Aggregate runs an aggregation pipeline over the named collection. The
// database itself is the pipeline environment, so $out and $lookup target
// sibling collections, exactly as the thesis' JavaScript queries do.
//
// A leading $match stage is pushed down into the storage engine so it can use
// the collection's indexes, matching the real engine's behaviour; the
// remaining stages run over the narrowed document set.
func (db *Database) Aggregate(coll string, stages []*bson.Doc) ([]*bson.Doc, error) {
	defer db.server.record("aggregate", db.server.clockTime())
	it, err := db.aggregateIter(coll, stages)
	if err != nil {
		return nil, err
	}
	return aggregate.Drain(it)
}

// RunPipeline runs a pre-parsed pipeline over the named collection,
// streaming the collection scan into the pipeline in cursor batches.
func (db *Database) RunPipeline(coll string, pipeline *aggregate.Pipeline) ([]*bson.Doc, error) {
	cur, err := db.Collection(coll).FindCursor(nil, storage.FindOptions{})
	if err != nil {
		return nil, err
	}
	return aggregate.Drain(&resultIter{it: pipeline.RunIter(Iter(cur), db.Env())})
}

// Env returns the aggregation environment backed by this database.
func (db *Database) Env() aggregate.Env { return &dbEnv{db: db} }

// dbEnv adapts a Database to the aggregate.Env interface.
type dbEnv struct{ db *Database }

func (e *dbEnv) ReadCollection(name string) ([]*bson.Doc, error) {
	if !e.db.HasCollection(name) {
		return nil, fmt.Errorf("mongod: collection %q does not exist in database %q", name, e.db.name)
	}
	// $lookup and other pipeline side-reads pin one immutable snapshot per
	// read: lock-free, and never a half-applied bulk batch.
	snap := e.db.Collection(name).Snapshot()
	defer snap.Release()
	return snap.Docs(), nil
}

// WriteCollection replaces the target collection ($out) with the result
// rows, uncopied. The target stores each row that has an _id as it is, and
// the pipeline's caller reads the same rows: nothing writes either, because
// every stored document is frozen and a row is the last stage's output, which
// no stage touches again. ReplaceContents checks every row, depth included,
// before it empties the target.
func (e *dbEnv) WriteCollection(name string, docs []*bson.Doc) error {
	return e.db.Collection(name).ReplaceContents(docs)
}
