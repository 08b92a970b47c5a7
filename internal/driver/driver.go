// Package driver provides the client abstraction the thesis' Java programs
// use: a uniform set of collection operations (find, insert, update,
// aggregate, index management) that works identically against a stand-alone
// server and against a sharded cluster's query router. The data-migration,
// denormalization and query-translation algorithms are all written against
// this interface, so each experiment only swaps the deployment underneath.
//
// A Deployment is the same swap for a server front end: one value per shape
// docstored runs (a stand-alone server, a replica set, a router over shards)
// that hands out a Store per database and answers the admin questions
// (collections, status, checkpoint, shardCollection, close) for its shape.
// Open builds one from docstored's settings, recovering its data directory.
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
// implement every method; the one that can fail for want of a capability is
// Watch, which errors when an underlying server is not durable.
type Store interface {
	// Name identifies the deployment ("stand-alone" or "sharded").
	Name() string
	// Find returns documents matching filter.
	Find(coll string, filter *bson.Doc, opts storage.FindOptions) ([]*bson.Doc, error)
	// FindCursor streams documents matching filter; batch size comes from
	// opts.BatchSize (zero = storage.DefaultBatchSize).
	FindCursor(coll string, filter *bson.Doc, opts storage.FindOptions) (Cursor, error)
	// Insert adds one document. A document without an _id is given one in
	// place, so the caller's document carries the id it was stored under;
	// nothing else may read that document while the call runs.
	Insert(coll string, doc *bson.Doc) (any, error)
	// InsertMany adds a batch of documents, returning the inserted ids in
	// document order. Each document without an _id is given one in place, as
	// by Insert. Both adapters route it through the bulk-write engine;
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
	// underlying server(s), and errors without it.
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

// Standalone adapts a database on a single server to the Store interface.
type Standalone struct {
	DB *mongod.Database
}

// NewStandalone wraps a database of a stand-alone server.
func NewStandalone(db *mongod.Database) *Standalone { return &Standalone{DB: db} }

// Name implements Store.
func (s *Standalone) Name() string { return "stand-alone" }

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
