package mongos

import (
	"testing"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/sharding"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

func shardCounts(r *Router, db, coll string) map[string]int {
	out := make(map[string]int)
	for _, name := range r.ShardNames() {
		out[name] = r.Shard(name).Database(db).Collection(coll).Count()
	}
	return out
}

// recordedDocs sums the documents the chunk map has recorded over all its
// chunks.
func recordedDocs(meta *sharding.CollectionMetadata) int {
	n := 0
	for _, c := range meta.Chunks() {
		n += c.DocCount
	}
	return n
}

// TestBulkWriteUnshardedSingleRoundTrip routes a whole mixed bulk to the
// primary shard in one shard call.
func TestBulkWriteUnshardedSingleRoundTrip(t *testing.T) {
	r := newTestRouter(t, Options{})
	r.ResetStats()
	res := r.BulkWrite("db", "plain", []storage.WriteOp{
		storage.InsertWriteOp(bson.D(bson.IDKey, 1, "v", 1)),
		storage.InsertWriteOp(bson.D(bson.IDKey, 2, "v", 2)),
		storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("$set", bson.D("v", 10))}),
		storage.DeleteWriteOp(bson.D(bson.IDKey, 2), false),
	}, storage.BulkOptions{})
	if res.FirstError() != nil {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.Inserted != 2 || res.Modified != 1 || res.Deleted != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := r.Stats().ShardCalls; got != 1 {
		t.Fatalf("shard calls = %d, want 1 round trip", got)
	}
	if got := r.Shard("Shard1").Database("db").Collection("plain").Count(); got != 1 {
		t.Fatalf("primary count = %d", got)
	}
}

// TestBulkWriteGroupedScatter checks that an unordered sharded bulk issues
// one shard call per owning shard — not one per document — and that inserted
// ids merge back under their original batch positions.
func TestBulkWriteGroupedScatter(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "sales", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	ops := make([]storage.WriteOp, 600)
	for i := range ops {
		ops[i] = storage.InsertWriteOp(bson.D(bson.IDKey, i, "k", i))
	}
	r.ResetStats()
	res := r.BulkWrite("db", "sales", ops, storage.BulkOptions{})
	if res.FirstError() != nil {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.Inserted != 600 || res.Attempted != 600 {
		t.Fatalf("result = %+v", res)
	}
	calls := r.Stats().ShardCalls
	if calls > int64(len(r.ShardNames())) {
		t.Fatalf("shard calls = %d, want at most one per shard", calls)
	}
	// Every shard owns part of the hashed key space at this cardinality.
	populated, total := 0, 0
	for _, n := range shardCounts(r, "db", "sales") {
		total += n
		if n > 0 {
			populated++
		}
	}
	if populated != 3 || total != 600 {
		t.Fatalf("distribution: populated=%d total=%d", populated, total)
	}
	// Original-index attribution: slot i carries doc i's _id.
	for i, id := range res.InsertedIDs {
		if id == nil || bson.Compare(id, bson.Normalize(i)) != 0 {
			t.Fatalf("InsertedIDs[%d] = %v", i, id)
		}
	}
}

// TestBulkWriteOrderedStopsAcrossShards verifies ordered mode: a failure in
// a mid-batch sub-batch prevents every later op from executing, even ops
// destined for other shards.
func TestBulkWriteOrderedStopsAcrossShards(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "sales", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	seed := make([]storage.WriteOp, 200)
	for i := range seed {
		seed[i] = storage.InsertWriteOp(bson.D(bson.IDKey, i, "k", i))
	}
	if res := r.BulkWrite("db", "sales", seed, storage.BulkOptions{}); res.FirstError() != nil {
		t.Fatal(res.FirstError())
	}

	ops := []storage.WriteOp{
		storage.InsertWriteOp(bson.D(bson.IDKey, 1000, "k", 1000)),
		storage.InsertWriteOp(bson.D(bson.IDKey, 0, "k", 0)), // duplicate _id on its shard
		storage.InsertWriteOp(bson.D(bson.IDKey, 1001, "k", 1001)),
		storage.InsertWriteOp(bson.D(bson.IDKey, 1002, "k", 1002)),
	}
	res := r.BulkWrite("db", "sales", ops, storage.BulkOptions{Ordered: true})
	if len(res.Errors) != 1 || res.Errors[0].Index != 1 {
		t.Fatalf("errors = %v", res.Errors)
	}
	total := 0
	for _, n := range shardCounts(r, "db", "sales") {
		total += n
	}
	// Op 0 ran; ops 2 and 3 must not have (they sit after the failure).
	if res.Inserted != 1 || total != 201 {
		t.Fatalf("ordered bulk ran past the failure: inserted=%d total=%d", res.Inserted, total)
	}

	// The same batch unordered inserts everything but the duplicate.
	unordered := []storage.WriteOp{
		storage.InsertWriteOp(bson.D(bson.IDKey, 2000, "k", 2000)),
		storage.InsertWriteOp(bson.D(bson.IDKey, 0, "k", 0)),
		storage.InsertWriteOp(bson.D(bson.IDKey, 2001, "k", 2001)),
	}
	res = r.BulkWrite("db", "sales", unordered, storage.BulkOptions{})
	if res.Inserted != 2 || len(res.Errors) != 1 || res.Errors[0].Index != 1 {
		t.Fatalf("unordered result = %+v", res)
	}
}

// TestBulkWriteOrderedStopDoesNotRecordUnreachedInserts pins the chunk-map
// accounting: inserts sitting after an ordered failure — destined for a
// different shard, so never dispatched — must not be recorded as chunk
// contents.
func TestBulkWriteOrderedStopDoesNotRecordUnreachedInserts(t *testing.T) {
	r := newTestRouter(t, Options{})
	meta, err := r.EnableSharding("db", "sales", bson.D("k", "hashed"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Probe the hashed key space for two keys owned by different shards.
	shardOf := func(k int) string {
		targets := r.bulkTargets(meta, &storage.WriteOp{Kind: storage.InsertOp, Doc: bson.D("k", k)})
		return targets[0]
	}
	kA := 0
	kB := -1
	for k := 1; k < 100; k++ {
		if shardOf(k) != shardOf(kA) {
			kB = k
			break
		}
	}
	if kB < 0 {
		t.Fatalf("no key pair spanning two shards in probe range")
	}
	if _, err := r.Insert("db", "sales", bson.D(bson.IDKey, "seed", "k", kA)); err != nil {
		t.Fatal(err)
	}
	recordedBefore := recordedDocs(meta)

	res := r.BulkWrite("db", "sales", []storage.WriteOp{
		storage.InsertWriteOp(bson.D(bson.IDKey, "seed", "k", kA)), // duplicate _id: fails on its shard
		storage.InsertWriteOp(bson.D(bson.IDKey, "other", "k", kB)),
	}, storage.BulkOptions{Ordered: true})
	if res.Inserted != 0 || len(res.Errors) != 1 || res.Errors[0].Index != 0 {
		t.Fatalf("result = %+v", res)
	}
	recordedAfter := recordedDocs(meta)
	// Op 0 was dispatched (and recorded) but failed; op 1 was never reached
	// and must not appear in the chunk accounting.
	if recordedAfter != recordedBefore+1 {
		t.Fatalf("chunk map records %d docs, want %d: unreached insert was recorded",
			recordedAfter, recordedBefore+1)
	}
}

// TestBulkWriteOrderedStopMidRunRecordsOnlyAttempted pins the same
// accounting within one contiguous run: a range-sharded collection keeps
// every op in a single run, and a mid-run duplicate must stop the chunk
// accounting at the attempted prefix.
func TestBulkWriteOrderedStopMidRunRecordsOnlyAttempted(t *testing.T) {
	r := newTestRouter(t, Options{})
	meta, err := r.EnableSharding("db", "sales", bson.D("k", 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert("db", "sales", bson.D(bson.IDKey, "seed", "k", 0)); err != nil {
		t.Fatal(err)
	}
	res := r.BulkWrite("db", "sales", []storage.WriteOp{
		storage.InsertWriteOp(bson.D(bson.IDKey, "a", "k", 1)),
		storage.InsertWriteOp(bson.D(bson.IDKey, "seed", "k", 2)), // duplicate
		storage.InsertWriteOp(bson.D(bson.IDKey, "b", "k", 3)),    // never attempted
	}, storage.BulkOptions{Ordered: true})
	if res.Inserted != 1 || res.Attempted != 2 || len(res.Errors) != 1 || res.Errors[0].Index != 1 {
		t.Fatalf("result = %+v", res)
	}
	recorded := recordedDocs(meta)
	// seed + ops 0 and 1 (attempted, even though op 1 failed); op 2 must not
	// be recorded.
	if recorded != 3 {
		t.Fatalf("chunk map records %d docs, want 3", recorded)
	}
}

// TestBulkWriteSpansChunkSplit inserts a bulk big enough to split its range
// chunks mid-batch: every document must still land on the shard the chunk
// map assigns, the chunk invariants must hold, and nothing is lost.
func TestBulkWriteSpansChunkSplit(t *testing.T) {
	r := newTestRouter(t, Options{})
	// Range sharding with a tiny chunk size forces splits during the batch.
	meta, err := r.EnableSharding("db", "sales", bson.D("k", 1), 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(meta.Chunks()); got != 1 {
		t.Fatalf("pre-split chunks = %d", got)
	}
	ops := make([]storage.WriteOp, 1000)
	for i := range ops {
		ops[i] = storage.InsertWriteOp(bson.D(bson.IDKey, i, "k", i, "pad", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
	}
	res := r.BulkWrite("db", "sales", ops, storage.BulkOptions{})
	if res.FirstError() != nil || res.Inserted != 1000 {
		t.Fatalf("result = %+v", res)
	}
	if got := len(meta.Chunks()); got < 2 {
		t.Fatalf("bulk did not span a chunk split: %d chunks", got)
	}
	if err := meta.Validate(); err != nil {
		t.Fatalf("chunk invariants broken after mid-bulk splits: %v", err)
	}
	total := 0
	for _, n := range shardCounts(r, "db", "sales") {
		total += n
	}
	if total != 1000 {
		t.Fatalf("stored %d of 1000 docs", total)
	}
	// Reads through the router still see every document.
	if n, err := r.Count("db", "sales", nil); err != nil || n != 1000 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

// TestBulkWriteMixesBroadcastOpsWithTargetedOnes mixes targeted inserts with
// a broadcast multi-update and multi-delete whose filters do not pin the
// shard key: each shard runs the broadcast ops in their batch position among
// its own inserts.
func TestBulkWriteMixesBroadcastOpsWithTargetedOnes(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "sales", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	ops := make([]storage.WriteOp, 0, 203)
	for i := 0; i < 200; i++ {
		ops = append(ops, storage.InsertWriteOp(bson.D(bson.IDKey, i, "k", i, "flag", i%2)))
	}
	ops = append(ops,
		storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("flag", 1), Update: bson.D("$set", bson.D("hot", true)), Multi: true}),
		storage.DeleteWriteOp(bson.D("flag", 0), true),
		storage.InsertWriteOp(bson.D(bson.IDKey, 999, "k", 999, "flag", 3)),
	)
	res := r.BulkWrite("db", "sales", ops, storage.BulkOptions{})
	if res.FirstError() != nil {
		t.Fatalf("errors: %v", res.Errors)
	}
	if res.Inserted != 201 || res.Matched != 100 || res.Modified != 100 || res.Deleted != 100 {
		t.Fatalf("result = %+v", res)
	}
	if n, _ := r.Count("db", "sales", nil); n != 101 {
		t.Fatalf("count after broadcast ops = %d", n)
	}
	if res.Attempted != len(ops) {
		t.Fatalf("attempted %d of %d ops: an op sent to several shards counts once", res.Attempted, len(ops))
	}
}

// TestBulkWriteGroupsBroadcastMultiOpsPerShard: an unordered chunk of
// multi-updates whose filters do not pin the shard key — what set-oriented
// embedding sends to a sharded fact collection — costs one call per shard,
// not one per op and shard, with each op counted and failing once.
func TestBulkWriteGroupsBroadcastMultiOpsPerShard(t *testing.T) {
	r := newTestRouter(t, Options{Parallel: true})
	if _, err := r.EnableSharding("db", "sales", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	docs := make([]*bson.Doc, 300)
	for i := range docs {
		docs[i] = bson.D(bson.IDKey, i, "k", i, "fk", i%50)
	}
	if _, err := r.InsertMany("db", "sales", docs); err != nil {
		t.Fatal(err)
	}
	ops := make([]storage.WriteOp, 0, 52)
	for fk := 0; fk < 50; fk++ {
		ops = append(ops, storage.UpdateWriteOp(query.UpdateSpec{
			Query: bson.D("fk", fk), Update: bson.D("$set", bson.D("fk", bson.D("pk", fk))), Multi: true,
		}))
	}
	// Op 50 fails on every shard that has a match ($inc of a document);
	// op 51 is a multi delete.
	ops = append(ops,
		storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("k", bson.D("$gte", 0)), Update: bson.D("$inc", bson.D("fk", 1)), Multi: true}),
		storage.DeleteWriteOp(bson.D("fk.pk", 49), true),
	)
	r.ResetStats()
	res := r.BulkWrite("db", "sales", ops, storage.BulkOptions{})
	st := r.Stats()
	if st.ShardCalls != 3 {
		t.Fatalf("%d broadcast ops took %d shard calls, want one per shard (3)", len(ops), st.ShardCalls)
	}
	if st.BroadcastQueries != 1 || st.TargetedQueries != 0 {
		t.Fatalf("routing recorded %d broadcast, %d targeted; want the chunk as one broadcast", st.BroadcastQueries, st.TargetedQueries)
	}
	// Matched: the 300 embeds plus op 50's first match on each shard, where
	// it fails.
	if res.Matched != 303 || res.Modified != 300 || res.Deleted != 6 || res.Attempted != len(ops) {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Errors) != 1 || res.Errors[0].Index != 50 {
		t.Fatalf("errors = %v, want exactly one, attributed to op 50", res.Errors)
	}
	left, err := r.Find("db", "sales", bson.D("fk.pk", bson.D("$exists", false)), storage.FindOptions{})
	if err != nil || len(left) != 0 {
		t.Fatalf("%d documents not updated, err %v", len(left), err)
	}

	// A broadcast op that fails on one shard is still applied on the others
	// (the sequential visit would have stopped at the first shard to fail): one
	// document holds a string where the rest can $inc.
	if _, err := r.Update("db", "sales", query.UpdateSpec{Query: bson.D(bson.IDKey, 0), Update: bson.D("$set", bson.D("n", "not a number"))}); err != nil {
		t.Fatal(err)
	}
	r.ResetStats()
	res = r.BulkWrite("db", "sales", []storage.WriteOp{
		storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("k", bson.D("$gte", 0)), Update: bson.D("$inc", bson.D("n", 1)), Multi: true}),
	}, storage.BulkOptions{})
	if len(res.Errors) != 1 || res.Errors[0].Index != 0 || res.Attempted != 1 {
		t.Fatalf("partly failing broadcast op: %+v", res)
	}
	if calls := r.Stats().ShardCalls; calls != 3 {
		t.Fatalf("a broadcast op took %d shard calls, want 3", calls)
	}
	applied := 0
	for _, name := range r.ShardNames() {
		c := r.Shard(name).Database("db").Collection("sales")
		if c.FindID(0) != nil {
			continue // the shard where the op failed
		}
		n, err := c.CountDocs(bson.D("n", 1))
		if err != nil || n == 0 || n != c.Count() {
			t.Fatalf("shard %s: the op reached %d of %d documents, err %v", name, n, c.Count(), err)
		}
		applied += n
	}
	if res.Modified < applied {
		t.Fatalf("modified %d, but %d documents changed on the shards without the failure", res.Modified, applied)
	}

	// Ops that need a cross-shard decision take the sequential visit: a
	// non-multi update or delete stops at the first shard that matches. An
	// upsert that pins the shard key goes to its one shard and inserts once
	// (TestBroadcastUpsertRefused covers the one that does not).
	r.ResetStats()
	res = r.BulkWrite("db", "sales", []storage.WriteOp{
		storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("fk.pk", 7), Update: bson.D("$set", bson.D("one", true))}),
		storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("k", 1000), Update: bson.D("$set", bson.D("up", true)), Multi: true, Upsert: true}),
		storage.DeleteWriteOp(bson.D("fk.pk", 8), false),
	}, storage.BulkOptions{})
	if res.FirstError() != nil || res.Modified != 1 || res.Upserted != 1 || res.Deleted != 1 || res.Attempted != 3 {
		t.Fatalf("cross-shard ops: %+v", res)
	}
	if n, _ := r.Count("db", "sales", bson.D("one", true)); n != 1 {
		t.Fatalf("non-multi update touched %d documents", n)
	}
	if n, _ := r.Count("db", "sales", bson.D("up", true)); n != 1 {
		t.Fatalf("upsert inserted %d documents", n)
	}
}

// TestRouterInsertManyEquivalence: the InsertMany wrapper must return ids
// aligned with the documents (each id is the stored _id of its document),
// exactly as a per-document Insert loop would.
func TestRouterInsertManyEquivalence(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "sales", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	docs := make([]*bson.Doc, 300)
	for i := range docs {
		docs[i] = bson.D("k", i, "v", i) // no _id: the engine assigns ObjectIDs
	}
	ids, err := r.InsertMany("db", "sales", docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(docs) {
		t.Fatalf("got %d ids for %d docs", len(ids), len(docs))
	}
	for i, d := range docs {
		id, ok := d.Get(bson.IDKey)
		if !ok {
			t.Fatalf("doc %d was not assigned an _id", i)
		}
		if bson.Compare(ids[i], id) != 0 {
			t.Fatalf("ids[%d] = %v, doc carries %v: order not preserved", i, ids[i], id)
		}
	}
	if n, _ := r.Count("db", "sales", nil); n != 300 {
		t.Fatalf("count = %d", n)
	}
}

// TestBulkWriteJournaledBroadcast checks the {j: true} escalation reaches
// broadcast (multi-shard) updates: shards run durable with SyncNone — the
// laziest policy — so only the journaled fallback path can have fsynced the
// records, which a recovery of each shard onto a fresh server then proves.
func TestBulkWriteJournaledBroadcast(t *testing.T) {
	cfg := sharding.NewConfigServer()
	r := NewRouter(cfg, Options{})
	dirs := map[string]string{"Shard1": t.TempDir(), "Shard2": t.TempDir()}
	for _, name := range []string{"Shard1", "Shard2"} {
		s := mongod.NewServer(mongod.Options{Name: name})
		if _, err := s.EnableDurability(mongod.Durability{Dir: dirs[name], Sync: wal.SyncNone}); err != nil {
			t.Fatal(err)
		}
		r.AddShard(name, s)
	}
	if _, err := r.EnableSharding("db", "c", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	ops := make([]storage.WriteOp, 0, 41)
	for i := 0; i < 40; i++ {
		ops = append(ops, storage.InsertWriteOp(bson.D(bson.IDKey, i, "k", i, "v", 0)))
	}
	// A multi-update with no shard-key filter broadcasts to every shard:
	// the sequential visit the journaled path must cover.
	ops = append(ops, storage.UpdateWriteOp(query.UpdateSpec{
		Query: bson.D("v", 0), Update: bson.D("$set", bson.D("touched", true)), Multi: true,
	}))
	res := r.BulkWrite("db", "c", ops, storage.BulkOptions{Ordered: true, Journaled: true})
	if err := res.FirstError(); err != nil {
		t.Fatalf("bulk: %v", err)
	}
	if res.Inserted != 40 || res.Modified != 40 {
		t.Fatalf("result = %+v", res)
	}
	// Simulated crash of every shard: recover fresh servers from the dirs.
	total := 0
	for name, dir := range dirs {
		fresh := mongod.NewServer(mongod.Options{Name: name})
		if _, err := fresh.EnableDurability(mongod.Durability{Dir: dir, Sync: wal.SyncNone}); err != nil {
			t.Fatal(err)
		}
		coll := fresh.Database("db").Collection("c")
		n, err := coll.CountDocs(bson.D("touched", true))
		if err != nil {
			t.Fatal(err)
		}
		if n != coll.Count() {
			t.Fatalf("shard %s: broadcast update not durable: %d of %d touched", name, n, coll.Count())
		}
		total += coll.Count()
	}
	if total != 40 {
		t.Fatalf("recovered %d documents across shards, want 40", total)
	}
}
