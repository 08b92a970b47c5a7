package mongos

import (
	"fmt"
	"sort"
	"sync"

	"docstore/internal/bson"
	"docstore/internal/sharding"
	"docstore/internal/storage"
)

// subBatch is the portion of a bulk destined for one shard, with the
// original batch positions of its ops so per-shard results merge back with
// correct index attribution.
type subBatch struct {
	shard   string
	ops     []storage.WriteOp
	indices []int
}

// bulkTargets resolves the shards one bulk op must reach. Inserts always
// route to exactly one shard through the chunk map; updates and deletes
// reuse the query-routing logic of targetShards. Routing is read-only —
// chunk accounting happens in recordInserts just before a sub-batch is
// dispatched, so ops an ordered batch never reaches are never recorded.
func (r *Router) bulkTargets(meta *sharding.CollectionMetadata, op *storage.WriteOp) []string {
	switch op.Kind {
	case storage.InsertOp:
		if op.Doc == nil {
			// Shape errors surface from the storage engine with the right op
			// index; route the op anywhere.
			return r.ShardNames()[:1]
		}
		shard, _ := meta.ShardForValue(meta.Key.ValueOf(op.Doc))
		return []string{shard}
	case storage.UpdateOp:
		targets, _ := r.targetShards(meta, op.Update.Query)
		return targets
	default: // storage.DeleteOp
		targets, _ := r.targetShards(meta, op.Filter)
		return targets
	}
}

// recordInserts accounts a sub-batch's attempted insert ops in the chunk
// map (feeding chunk-split decisions) after dispatch, so ops a stopped
// ordered batch never reached are never recorded. Splits keep both halves
// on the chunk's shard, so recording after routing cannot invalidate the
// shard the ops were grouped under.
func recordInserts(meta *sharding.CollectionMetadata, ops []storage.WriteOp) {
	for i := range ops {
		if ops[i].Kind == storage.InsertOp && ops[i].Doc != nil {
			meta.RecordInsert(meta.Key.ValueOf(ops[i].Doc), bson.EncodedSize(ops[i].Doc))
		}
	}
}

// BulkWrite routes a mixed batch of writes. For an unsharded collection the
// whole batch is one round-trip to the primary shard. For a sharded
// collection the batch is partitioned by target shard via the chunk map and
// dispatched as per-shard sub-batches — one round-trip per shard instead of
// one per document; unordered sub-batches fan out in parallel goroutines.
// Ordered mode preserves cross-op ordering the way the real mongos does:
// maximal contiguous runs targeting the same single shard dispatch
// sequentially, stopping at the first failure. Ops whose filter spans
// several shards (broadcast updates/deletes) join every target shard's
// sub-batch when the batch is unordered and each shard can run them on its
// own (see broadcastable); otherwise visitShards walks their shards in
// place. A grouped broadcast op that fails on one shard is still applied on
// the other shards it spans and their counts are reported, where visitShards
// stops at the first error; its error is reported once. Insert, Update and
// Delete are one-op ordered batches, so this is the router's only write path.
func (r *Router) BulkWrite(db, coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	var res storage.BulkResult
	if len(ops) == 0 {
		return res
	}
	meta := r.config.Metadata(namespace(db, coll))
	if meta == nil {
		names := r.ShardNames()
		if len(names) == 0 {
			res.DurabilityErr = fmt.Errorf("mongos: no shards registered")
			return res
		}
		r.remoteCall()
		r.recordRouting(true)
		return r.shardBulkWrite(names[0], db, coll, ops, opts)
	}
	if opts.Ordered {
		res = r.bulkOrdered(db, coll, meta, ops, opts)
	} else {
		res = r.bulkUnordered(db, coll, meta, ops, opts)
	}
	sort.Slice(res.Errors, func(i, j int) bool { return res.Errors[i].Index < res.Errors[j].Index })
	return res
}

// broadcastable reports whether an op may run independently on every shard
// its filter spans: a multi update that cannot upsert, or a multi delete.
// Such an op has no cross-shard state — each shard changes its own matches
// and the counts add up — whereas a non-multi op must stop at the first
// shard that matches and an upsert must insert on exactly one (visitShards
// refuses it).
func broadcastable(op *storage.WriteOp) bool {
	switch op.Kind {
	case storage.UpdateOp:
		return op.Update.Multi && !op.Update.Upsert
	case storage.DeleteOp:
		return op.Multi
	default:
		return false
	}
}

// bulkUnordered partitions the whole batch by target shard and dispatches
// every sub-batch concurrently, one goroutine (and one simulated round-trip)
// per shard. A broadcastable op whose filter spans several shards joins the
// sub-batch of each of them, in its batch position, so a chunk of broadcast
// multi-updates costs one call per shard instead of one per op and shard.
// The shards run it independently: one that fails it does not keep the
// others from applying it, unlike the sequential visit, which stops at the
// first shard to return an error. The remaining multi-shard ops go through
// that visit afterwards.
func (r *Router) bulkUnordered(db, coll string, meta *sharding.CollectionMetadata, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	var res storage.BulkResult
	groups := make(map[string]*subBatch)
	var visits []int
	broadcast := false
	for i := range ops {
		targets := r.bulkTargets(meta, &ops[i])
		if len(targets) != 1 {
			if !broadcastable(&ops[i]) {
				visits = append(visits, i)
				continue
			}
			broadcast = true
		}
		for _, shard := range targets {
			sb, ok := groups[shard]
			if !ok {
				sb = &subBatch{shard: shard}
				groups[shard] = sb
			}
			sb.ops = append(sb.ops, ops[i])
			sb.indices = append(sb.indices, i)
		}
	}

	subs := make([]*subBatch, 0, len(groups))
	for _, sb := range groups {
		subs = append(subs, sb)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].shard < subs[j].shard })

	results := make([]storage.BulkResult, len(subs))
	var wg sync.WaitGroup
	for si, sb := range subs {
		wg.Add(1)
		go func(si int, sb *subBatch) {
			defer wg.Done()
			r.remoteCall()
			results[si] = r.shardBulkWrite(sb.shard, db, coll, sb.ops, opts)
			recordInserts(meta, sb.ops[:results[si].Attempted])
		}(si, sb)
	}
	wg.Wait()
	// An op that went to several shards was attempted once, and fails once:
	// its error is the one from the first shard, in name order, that
	// reported one — what the sequential visit would have returned.
	attempted := make([]bool, len(ops))
	failed := make([]bool, len(ops))
	for si, sb := range subs {
		sub := results[si]
		for _, i := range sb.indices[:sub.Attempted] {
			if !attempted[i] {
				attempted[i] = true
				res.Attempted++
			}
		}
		sub.Attempted = 0
		var kept []storage.BulkError
		for _, e := range sub.Errors {
			if i := sb.indices[e.Index]; !failed[i] {
				failed[i] = true
				kept = append(kept, e)
			}
		}
		sub.Errors = kept
		res.Merge(sub, sb.indices, len(ops))
	}
	for _, i := range visits {
		// Unordered: a failed visit is in res.Errors and the batch goes on.
		_ = r.visitShards(db, coll, meta, &ops[i], i, &res, opts)
	}
	// The grouped dispatch is one logical routed operation; each visit
	// records itself.
	if len(subs) > 0 {
		r.recordRouting(len(visits) == 0 && !broadcast)
	}
	return res
}

// bulkOrdered walks the batch in order, dispatching each maximal contiguous
// run of same-shard ops as one sub-batch and stopping at the first failure.
func (r *Router) bulkOrdered(db, coll string, meta *sharding.CollectionMetadata, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	var res storage.BulkResult
	targeted := true
	runs := 0
	i := 0
	targets := r.bulkTargets(meta, &ops[0])
	for i < len(ops) {
		if len(targets) != 1 {
			targeted = false
			err := r.visitShards(db, coll, meta, &ops[i], i, &res, opts)
			i++
			if err != nil {
				break
			}
			if i < len(ops) {
				targets = r.bulkTargets(meta, &ops[i])
			}
			continue
		}
		shard := targets[0]
		j := i + 1
		for j < len(ops) {
			targets = r.bulkTargets(meta, &ops[j])
			if len(targets) != 1 || targets[0] != shard {
				break
			}
			j++
		}
		indices := make([]int, j-i)
		for k := range indices {
			indices[k] = i + k
		}
		r.remoteCall()
		runs++
		subRes := r.shardBulkWrite(shard, db, coll, ops[i:j], opts)
		recordInserts(meta, ops[i:i+subRes.Attempted])
		res.Merge(subRes, indices, len(ops))
		if len(res.Errors) > 0 {
			break
		}
		i = j
	}
	// As in the unordered path, only the grouped runs count as one routed
	// operation; each multi-shard visit records itself.
	if runs > 0 {
		r.recordRouting(targeted)
	}
	return res
}

// visitShards executes one update or delete whose filter spans several
// shards, folding its outcome into res at batch position i. It is the only
// place the router visits more than one shard for one op: the shards are
// visited in name order, each as a one-op sub-batch carrying the batch's
// acknowledgement contract ({j: true}, write concern) and trace, the visit
// stops at the first shard to fail, and a non-multi op stops at the first
// shard that matches. An upsert is refused, as the thesis-era mongos refuses
// it: a filter that does not pin the shard key cannot say which shard owns
// the document to insert, and forwarding the upsert to each shard visited
// would insert one there.
func (r *Router) visitShards(db, coll string, meta *sharding.CollectionMetadata, op *storage.WriteOp, i int, res *storage.BulkResult, opts storage.BulkOptions) error {
	res.Attempted++
	fail := func(err error) error {
		res.Errors = append(res.Errors, storage.BulkError{Index: i, Err: err})
		return err
	}
	var filter *bson.Doc
	var multi bool
	switch op.Kind {
	case storage.UpdateOp:
		if op.Update.Upsert {
			return fail(fmt.Errorf("mongos: upsert on %s.%s must target one shard: the filter needs an equality on the shard key {%s}", db, coll, meta.Key))
		}
		filter, multi = op.Update.Query, op.Update.Multi
	case storage.DeleteOp:
		filter, multi = op.Filter, op.Multi
	default:
		// Mirror the storage engine so both Store adapters reject the
		// same malformed op the same way.
		return fail(fmt.Errorf("mongos: unknown bulk op kind %d", int(op.Kind)))
	}
	targets, targeted := r.targetShards(meta, filter)
	opts.Ordered = true
	one := []storage.WriteOp{*op}
	for _, shard := range targets {
		r.remoteCall()
		sub := r.shardBulkWrite(shard, db, coll, one, opts)
		res.Matched += sub.Matched
		res.Modified += sub.Modified
		res.Deleted += sub.Deleted
		if err := sub.FirstError(); err != nil {
			return fail(err)
		}
		if !multi && sub.Matched+sub.Deleted > 0 {
			break
		}
	}
	r.recordRouting(targeted)
	return nil
}
