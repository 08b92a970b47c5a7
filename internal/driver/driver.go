// Package driver provides the client abstraction the thesis' Java programs
// use: a uniform set of collection operations (find, insert, update,
// aggregate, index management) that works identically against a stand-alone
// server and against a sharded cluster's query router. The data-migration,
// denormalization and query-translation algorithms are all written against
// this interface, so each experiment only swaps the deployment underneath.
package driver

import (
	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/changestream"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/query"
	"docstore/internal/storage"
)

// Cursor is the streaming result interface the driver exposes: the
// aggregation engine's iterator, implemented by the stand-alone server's
// storage cursors and by the query router's shard-merge cursors alike.
type Cursor = aggregate.Iterator

// Store is the full operation set the algorithms need from a deployment:
// slice and cursor reads, scalar and bulk writes, aggregation, change
// streams, and index/collection management. Both deployment adapters
// implement every method; what may vary at runtime is whether a capability
// is usable (change streams require durability on the underlying servers),
// which Capabilities reports without a single type assertion.
type Store interface {
	// Name identifies the deployment ("stand-alone" or "sharded").
	Name() string
	// Find returns documents matching filter.
	Find(coll string, filter *bson.Doc, opts storage.FindOptions) ([]*bson.Doc, error)
	// FindCursor streams documents matching filter; batch size comes from
	// opts.BatchSize (zero = storage.DefaultBatchSize).
	FindCursor(coll string, filter *bson.Doc, opts storage.FindOptions) (Cursor, error)
	// Insert adds one document.
	Insert(coll string, doc *bson.Doc) (any, error)
	// InsertMany adds a batch of documents, returning the inserted ids in
	// document order. Both adapters route it through the bulk-write engine;
	// on a mid-batch failure the stand-alone adapter stops at the failing
	// document (ordered) while the sharded adapter still attempts the
	// remaining per-shard sub-batches in parallel (unordered) — callers that
	// need an exact partial-state guarantee on error should use BulkWrite
	// with an explicit ordered mode.
	InsertMany(coll string, docs []*bson.Doc) ([]any, error)
	// BulkWrite executes a mixed batch of inserts/updates/deletes with
	// per-op error attribution; opts selects ordered or unordered mode and
	// the writeConcern (opts.Journaled is {j: true}: against a durable
	// deployment the batch is acknowledged only once its write-ahead-log
	// record is fsynced — the sharded adapter propagates it to every
	// per-shard sub-batch).
	BulkWrite(coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult
	// Update applies an update specification (query, update, upsert, multi).
	Update(coll string, spec query.UpdateSpec) (storage.UpdateResult, error)
	// Aggregate runs an aggregation pipeline.
	Aggregate(coll string, stages []*bson.Doc) ([]*bson.Doc, error)
	// AggregateCursor streams the results of an aggregation pipeline.
	AggregateCursor(coll string, stages []*bson.Doc) (Cursor, error)
	// Watch opens a change stream over a collection (coll == "" watches
	// the whole database): a live, resumable feed of committed writes.
	// pipeline is an optional list of $match stages evaluated per event;
	// resumeAfter, when non-empty, is a token from a previous stream's
	// ResumeToken — the deployment-matching format (per-server token
	// stand-alone, composite token sharded). Requires durability on the
	// underlying server(s); Capabilities reports whether it is available
	// without opening one.
	Watch(coll string, pipeline []*bson.Doc, resumeAfter string) (changestream.Stream, error)
	// Count returns the number of documents matching filter.
	Count(coll string, filter *bson.Doc) (int, error)
	// EnsureIndex creates an index.
	EnsureIndex(coll string, spec *bson.Doc, unique bool) error
	// DropCollection removes a collection.
	DropCollection(coll string) bool
	// DataSizeBytes returns the total stored size of a collection across the
	// deployment, used for selectivity and working-set reporting.
	DataSizeBytes(coll string) int64
}

var (
	_ Store = (*Standalone)(nil)
	_ Store = (*Sharded)(nil)
)

// CapabilitySet reports which optional behaviours of a Store are usable
// right now against its deployment. Interface satisfaction alone cannot say
// this — every Store has a Watch method, but change streams only work when
// the underlying servers run durable — so capability discovery is a runtime
// question, answered here, instead of a compile-time type-assertion ladder.
type CapabilitySet struct {
	// Cursors: FindCursor/AggregateCursor stream in batches.
	Cursors bool
	// Bulk: BulkWrite executes mixed batches with per-op attribution.
	Bulk bool
	// Watch: change streams can be opened (requires durability on every
	// underlying server of the deployment).
	Watch bool
}

// String renders the set compactly, e.g. "cursors,bulk" or "none".
func (c CapabilitySet) String() string {
	s := ""
	for _, f := range []struct {
		on   bool
		name string
	}{{c.Cursors, "cursors"}, {c.Bulk, "bulk"}, {c.Watch, "watch"}} {
		if !f.on {
			continue
		}
		if s != "" {
			s += ","
		}
		s += f.name
	}
	if s == "" {
		return "none"
	}
	return s
}

// CapabilityReporter is implemented by stores that can report their own
// capability set; both adapters of this package do. Stores without it are
// assumed fully capable (they implement every Store method, after all) —
// the report exists to catch the cases where a method would fail at runtime.
type CapabilityReporter interface {
	Capabilities() CapabilitySet
}

// Capabilities reports what the store supports against its current
// deployment: instead of asking "does this value have the method", callers
// ask "will the method work".
func Capabilities(s Store) CapabilitySet {
	if r, ok := s.(CapabilityReporter); ok {
		return r.Capabilities()
	}
	return CapabilitySet{Cursors: true, Bulk: true, Watch: true}
}

// Standalone adapts a database on a single server to the Store interface.
type Standalone struct {
	DB *mongod.Database
}

// NewStandalone wraps a database of a stand-alone server.
func NewStandalone(db *mongod.Database) *Standalone { return &Standalone{DB: db} }

// Name implements Store.
func (s *Standalone) Name() string { return "stand-alone" }

// Capabilities implements CapabilityReporter: cursors and bulk writes are
// native; change streams require the server to run durable.
func (s *Standalone) Capabilities() CapabilitySet {
	return CapabilitySet{Cursors: true, Bulk: true, Watch: s.DB.Server().DurabilityEnabled()}
}

// Find implements Store.
func (s *Standalone) Find(coll string, filter *bson.Doc, opts storage.FindOptions) ([]*bson.Doc, error) {
	return s.DB.Find(coll, filter, opts)
}

// Insert implements Store.
func (s *Standalone) Insert(coll string, doc *bson.Doc) (any, error) { return s.DB.Insert(coll, doc) }

// InsertMany implements Store.
func (s *Standalone) InsertMany(coll string, docs []*bson.Doc) ([]any, error) {
	return s.DB.InsertMany(coll, docs)
}

// BulkWrite implements Store.
func (s *Standalone) BulkWrite(coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	return s.DB.BulkWrite(coll, ops, opts)
}

// Update implements Store.
func (s *Standalone) Update(coll string, spec query.UpdateSpec) (storage.UpdateResult, error) {
	return s.DB.Update(coll, spec)
}

// Aggregate implements Store.
func (s *Standalone) Aggregate(coll string, stages []*bson.Doc) ([]*bson.Doc, error) {
	return s.DB.Aggregate(coll, stages)
}

// FindCursor implements Store.
func (s *Standalone) FindCursor(coll string, filter *bson.Doc, opts storage.FindOptions) (Cursor, error) {
	cur, err := s.DB.FindCursor(coll, filter, opts)
	if err != nil {
		return nil, err
	}
	return mongod.Iter(cur), nil
}

// AggregateCursor implements Store.
func (s *Standalone) AggregateCursor(coll string, stages []*bson.Doc) (Cursor, error) {
	return s.DB.AggregateCursor(coll, stages)
}

// Watch implements Store.
func (s *Standalone) Watch(coll string, pipeline []*bson.Doc, resumeAfter string) (changestream.Stream, error) {
	return s.DB.Server().Watch(s.DB.Name(), coll, mongod.WatchOptions{Pipeline: pipeline, ResumeAfter: resumeAfter})
}

// Count implements Store.
func (s *Standalone) Count(coll string, filter *bson.Doc) (int, error) {
	return s.DB.Collection(coll).CountDocs(filter)
}

// EnsureIndex implements Store.
func (s *Standalone) EnsureIndex(coll string, spec *bson.Doc, unique bool) error {
	_, err := s.DB.EnsureIndex(coll, spec, unique)
	return err
}

// DropCollection implements Store.
func (s *Standalone) DropCollection(coll string) bool { return s.DB.DropCollection(coll) }

// DataSizeBytes implements Store.
func (s *Standalone) DataSizeBytes(coll string) int64 {
	return int64(s.DB.Collection(coll).DataSize())
}

// Sharded adapts a database reached through a cluster's query router.
type Sharded struct {
	Router *mongos.Router
	DBName string
}

// NewSharded wraps a database behind a query router.
func NewSharded(router *mongos.Router, dbName string) *Sharded {
	return &Sharded{Router: router, DBName: dbName}
}

// Name implements Store.
func (s *Sharded) Name() string { return "sharded" }

// Capabilities implements CapabilityReporter: a cluster-wide change stream
// needs every shard durable (the merge has no token for a shard that cannot
// produce events).
func (s *Sharded) Capabilities() CapabilitySet {
	c := CapabilitySet{Cursors: true, Bulk: true, Watch: true}
	names := s.Router.ShardNames()
	if len(names) == 0 {
		c.Watch = false
		return c
	}
	for _, name := range names {
		if !s.Router.Shard(name).DurabilityEnabled() {
			c.Watch = false
			break
		}
	}
	return c
}

// Find implements Store.
func (s *Sharded) Find(coll string, filter *bson.Doc, opts storage.FindOptions) ([]*bson.Doc, error) {
	return s.Router.Find(s.DBName, coll, filter, opts)
}

// Insert implements Store.
func (s *Sharded) Insert(coll string, doc *bson.Doc) (any, error) {
	return s.Router.Insert(s.DBName, coll, doc)
}

// InsertMany implements Store.
func (s *Sharded) InsertMany(coll string, docs []*bson.Doc) ([]any, error) {
	return s.Router.InsertMany(s.DBName, coll, docs)
}

// BulkWrite implements Store.
func (s *Sharded) BulkWrite(coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	return s.Router.BulkWrite(s.DBName, coll, ops, opts)
}

// Update implements Store.
func (s *Sharded) Update(coll string, spec query.UpdateSpec) (storage.UpdateResult, error) {
	return s.Router.Update(s.DBName, coll, spec)
}

// Aggregate implements Store.
func (s *Sharded) Aggregate(coll string, stages []*bson.Doc) ([]*bson.Doc, error) {
	return s.Router.Aggregate(s.DBName, coll, stages)
}

// FindCursor implements Store.
func (s *Sharded) FindCursor(coll string, filter *bson.Doc, opts storage.FindOptions) (Cursor, error) {
	cur, err := s.Router.FindCursor(s.DBName, coll, filter, opts)
	if err != nil {
		return nil, err
	}
	return cur, nil
}

// AggregateCursor implements Store.
func (s *Sharded) AggregateCursor(coll string, stages []*bson.Doc) (Cursor, error) {
	return s.Router.AggregateCursor(s.DBName, coll, stages)
}

// Watch implements Store.
func (s *Sharded) Watch(coll string, pipeline []*bson.Doc, resumeAfter string) (changestream.Stream, error) {
	return s.Router.Watch(s.DBName, coll, pipeline, resumeAfter)
}

// Count implements Store.
func (s *Sharded) Count(coll string, filter *bson.Doc) (int, error) {
	return s.Router.Count(s.DBName, coll, filter)
}

// EnsureIndex implements Store.
func (s *Sharded) EnsureIndex(coll string, spec *bson.Doc, unique bool) error {
	return s.Router.EnsureIndex(s.DBName, coll, spec, unique)
}

// DropCollection implements Store.
func (s *Sharded) DropCollection(coll string) bool {
	dropped := false
	for _, name := range s.Router.ShardNames() {
		if s.Router.Shard(name).Database(s.DBName).DropCollection(coll) {
			dropped = true
		}
	}
	return dropped
}

// DataSizeBytes implements Store.
func (s *Sharded) DataSizeBytes(coll string) int64 {
	var total int64
	for _, name := range s.Router.ShardNames() {
		total += int64(s.Router.Shard(name).Database(s.DBName).Collection(coll).DataSize())
	}
	return total
}
