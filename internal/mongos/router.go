// Package mongos implements the query router of the sharded cluster: it
// routes inserts, finds, updates, deletes and aggregations to the shard (or
// shards) owning the relevant chunks, gathers partial results, and merges
// them — the mongos role of §2.1.3.1. Routing statistics distinguish targeted
// operations (the query pins the shard key, as in Query 50) from broadcast
// operations (multi-predicate analytical queries, as in Queries 7/21/46),
// which is the distinction §4.3 uses to explain the runtime results.
package mongos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/sharding"
	"docstore/internal/storage"
)

// Options configures a Router.
type Options struct {
	// NetworkLatency is the simulated one-way latency added to every remote
	// shard call. It stands in for the AWS inter-instance network of the
	// thesis' cluster; zero disables the simulation.
	NetworkLatency time.Duration
	// Parallel performs scatter-gather shard calls concurrently. The thesis'
	// Java client issues operations sequentially, so sequential is the
	// default; the ablation benchmarks flip this.
	Parallel bool
}

// RoutingStats counts how queries were routed.
type RoutingStats struct {
	TargetedQueries  int64
	BroadcastQueries int64
	ShardCalls       int64
	DocsMerged       int64
}

// ReplicaShard is one shard as the router sees it: a replica set, or a plain
// server registered as a set of one. Reads and index builds go to Primary(),
// the set's primary at the time of the call, so they follow a failover;
// every write goes through BulkWrite, so a per-request write concern
// survives the scatter. *replset.ReplicaSet implements it.
type ReplicaShard interface {
	BulkWrite(db, coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult
	Primary() *mongod.Server
}

// setOfOne is a plain server registered as a replica set of one: it is its
// own primary, and a bulk write is acknowledged once it has applied it.
type setOfOne struct{ server *mongod.Server }

func (s setOfOne) Primary() *mongod.Server { return s.server }

func (s setOfOne) BulkWrite(db, coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	return s.server.Database(db).BulkWrite(coll, ops, opts)
}

// Router is the query router (mongos).
type Router struct {
	config *sharding.ConfigServer
	opts   Options

	mu     sync.RWMutex
	shards map[string]ReplicaShard
	order  []string // shard names in registration order; order[0] is the primary shard
	stats  RoutingStats
}

// NewRouter creates a router over a config server.
func NewRouter(config *sharding.ConfigServer, opts Options) *Router {
	return &Router{config: config, opts: opts, shards: make(map[string]ReplicaShard)}
}

// AddShard registers a shard server with the router and the config server,
// as a replica set of one.
func (r *Router) AddShard(name string, server *mongod.Server) {
	r.AddReplicaShard(name, setOfOne{server})
}

// AddReplicaShard registers a replica-set-backed shard: reads and index
// builds target the set's current primary, while every write dispatches
// through the set's BulkWrite so acknowledgement honours the request's write
// concern across the set's members. Registering a name twice is a no-op.
func (r *Router) AddReplicaShard(name string, rs ReplicaShard) {
	r.mu.Lock()
	if _, exists := r.shards[name]; !exists {
		r.shards[name] = rs
		r.order = append(r.order, name)
	}
	r.mu.Unlock()
	r.config.AddShard(name)
}

// shardBulkWrite dispatches one sub-batch to a shard through its BulkWrite,
// so the write concern gates the acknowledgement.
func (r *Router) shardBulkWrite(name, db, coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	// Every per-shard dispatch gets its own child span — unordered batches
	// fan out in parallel goroutines, so a traced scatter shows one
	// mongos.shard span per shard under the same parent.
	span := opts.Trace.Child("mongos.shard")
	span.SetAttr("shard", name)
	span.SetAttr("ops", len(ops))
	opts.Trace = span
	r.mu.RLock()
	shard := r.shards[name]
	r.mu.RUnlock()
	res := shard.BulkWrite(db, coll, ops, opts)
	span.Finish()
	return res
}

// Shard returns the named shard's primary at the time of the call, so reads
// follow a failover, or nil for an unknown name.
func (r *Router) Shard(name string) *mongod.Server {
	r.mu.RLock()
	shard := r.shards[name]
	r.mu.RUnlock()
	if shard == nil {
		return nil
	}
	return shard.Primary()
}

// ShardNames returns the registered shard names in registration order.
func (r *Router) ShardNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Replicated reports whether every shard is a replica set, which answers a
// write concern of w > 1 itself; a plain shard would acknowledge it once it
// alone had applied the write.
func (r *Router) Replicated() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, shard := range r.shards {
		if _, plain := shard.(setOfOne); plain {
			return false
		}
	}
	return len(r.shards) > 0
}

// PrimaryShard returns the shard that stores unsharded collections.
func (r *Router) PrimaryShard() *mongod.Server {
	r.mu.RLock()
	if len(r.order) == 0 {
		r.mu.RUnlock()
		return nil
	}
	name := r.order[0]
	r.mu.RUnlock()
	return r.Shard(name)
}

// Stats returns a snapshot of the routing statistics.
func (r *Router) Stats() RoutingStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.stats
}

// ResetStats zeroes the routing statistics.
func (r *Router) ResetStats() {
	r.mu.Lock()
	r.stats = RoutingStats{}
	r.mu.Unlock()
}

func namespace(db, coll string) string { return db + "." + coll }

// remoteCall accounts for one call to a shard, including the simulated
// network latency.
func (r *Router) remoteCall() {
	r.mu.Lock()
	r.stats.ShardCalls++
	r.mu.Unlock()
	if r.opts.NetworkLatency > 0 {
		time.Sleep(r.opts.NetworkLatency)
	}
}

func (r *Router) recordRouting(targeted bool) {
	r.mu.Lock()
	if targeted {
		r.stats.TargetedQueries++
	} else {
		r.stats.BroadcastQueries++
	}
	r.mu.Unlock()
}

// EnableSharding shards a collection with the given shard key, creating the
// backing shard-key index on every shard.
func (r *Router) EnableSharding(db, coll string, keySpec *bson.Doc, chunkSizeBytes int) (*sharding.CollectionMetadata, error) {
	key, err := sharding.ParseShardKey(keySpec)
	if err != nil {
		return nil, err
	}
	meta, err := r.config.ShardCollection(namespace(db, coll), key, chunkSizeBytes)
	if err != nil {
		return nil, err
	}
	for _, name := range r.ShardNames() {
		r.remoteCall()
		if _, err := r.Shard(name).Database(db).Collection(coll).EnsureIndex(key.IndexSpec(), false); err != nil {
			return nil, err
		}
	}
	return meta, nil
}

// Insert routes a document insert: a one-op ordered BulkWrite, so a sharded
// collection routes it by shard key through the chunk map, an unsharded one
// sends it to the primary shard, and a replica-backed shard acknowledges it
// under the set's default write concern. Use BulkWrite with an explicit
// WriteConcern to override per request.
func (r *Router) Insert(db, coll string, doc *bson.Doc) (any, error) {
	res := r.BulkWrite(db, coll, []storage.WriteOp{storage.InsertWriteOp(doc)}, storage.BulkOptions{Ordered: true})
	return res.InsertedID()
}

// InsertMany routes a batch of inserts through the bulk-write engine: the
// batch is partitioned by target shard and dispatched as one parallel
// sub-batch per shard — one round-trip per shard instead of one per
// document. The returned ids follow the original document order; on failure
// every shard's sub-batch is still attempted and the ids of the documents
// that did insert are returned alongside the first error.
func (r *Router) InsertMany(db, coll string, docs []*bson.Doc) ([]any, error) {
	res := r.BulkWrite(db, coll, storage.InsertOps(docs), storage.BulkOptions{})
	return res.CompactInsertedIDs(), res.FirstError()
}

// targetShards determines which shards a filter must be sent to. The second
// return value reports whether the routing was targeted (fewer shards than
// the whole cluster).
func (r *Router) targetShards(meta *sharding.CollectionMetadata, filter *bson.Doc) ([]string, bool) {
	all := r.ShardNames()
	if meta == nil {
		return all[:1], true
	}
	if len(meta.Key.Fields) != 1 || filter == nil {
		owned := meta.AllShards()
		if len(owned) == 0 {
			owned = all
		}
		return owned, false
	}
	keyField := meta.Key.Fields[0]
	cons := query.ConstraintFor(filter, keyField)
	if cons == nil {
		owned := meta.AllShards()
		if len(owned) == 0 {
			owned = all
		}
		return owned, false
	}
	if cons.IsPoint() {
		seen := make(map[string]bool)
		var out []string
		for _, p := range cons.Points {
			shard, _ := meta.ShardForValue(meta.Key.RoutingValue(p))
			if !seen[shard] {
				seen[shard] = true
				out = append(out, shard)
			}
		}
		sort.Strings(out)
		return out, len(out) < len(all)
	}
	if cons.IsRange() && !meta.Key.Hashed {
		shards := meta.ShardsForRange(cons.Min, cons.HasMin, cons.Max, cons.HasMax)
		if len(shards) == 0 {
			shards = meta.AllShards()
		}
		return shards, len(shards) < len(all)
	}
	owned := meta.AllShards()
	if len(owned) == 0 {
		owned = all
	}
	return owned, false
}

// Find routes a query, gathers per-shard results and merges them under the
// requested sort order. It is a thin wrapper draining the streaming merge
// cursor of FindCursor.
func (r *Router) Find(db, coll string, filter *bson.Doc, opts storage.FindOptions) ([]*bson.Doc, error) {
	cur, err := r.FindCursor(db, coll, filter, opts)
	if err != nil {
		return nil, err
	}
	return cur.All()
}

// Count routes a count: each shard targetShards selects counts its matches
// on its current primary, one shard call each, and the router adds the
// counts up without fetching a document.
func (r *Router) Count(db, coll string, filter *bson.Doc) (int, error) {
	targets, targeted := r.targetShards(r.config.Metadata(namespace(db, coll)), filter)
	total := 0
	for _, name := range targets {
		r.remoteCall()
		n, err := r.Shard(name).Database(db).Collection(coll).CountDocs(filter)
		if err != nil {
			return 0, fmt.Errorf("mongos: shard %s: %w", name, err)
		}
		total += n
	}
	r.recordRouting(targeted)
	return total, nil
}

// Update routes an update to the shards owning matching documents, as a
// one-op ordered BulkWrite.
func (r *Router) Update(db, coll string, spec query.UpdateSpec) (storage.UpdateResult, error) {
	res := r.BulkWrite(db, coll, []storage.WriteOp{storage.UpdateWriteOp(spec)}, storage.BulkOptions{Ordered: true})
	return res.UpdateResult()
}

// Delete routes a delete to the shards owning matching documents, as a
// one-op ordered BulkWrite.
func (r *Router) Delete(db, coll string, filter *bson.Doc, multi bool) (int, error) {
	res := r.BulkWrite(db, coll, []storage.WriteOp{storage.DeleteWriteOp(filter, multi)}, storage.BulkOptions{Ordered: true})
	return res.Deleted, res.FirstError()
}

// EnsureIndex creates an index on every shard holding the collection.
func (r *Router) EnsureIndex(db, coll string, spec *bson.Doc, unique bool) error {
	for _, name := range r.ShardNames() {
		r.remoteCall()
		if _, err := r.Shard(name).Database(db).EnsureIndex(coll, spec, unique); err != nil {
			return err
		}
	}
	return nil
}

// Aggregate routes an aggregation pipeline: the per-document prefix of the
// pipeline runs on each targeted shard, the remainder (grouping, sorting,
// $out) runs on the router over the concatenated shard streams, and $out
// writes to the primary shard. It is a thin wrapper draining the streaming
// iterator of AggregateCursor.
func (r *Router) Aggregate(db, coll string, stages []*bson.Doc) ([]*bson.Doc, error) {
	it, err := r.AggregateCursor(db, coll, stages)
	if err != nil {
		return nil, err
	}
	return aggregate.Drain(it)
}
