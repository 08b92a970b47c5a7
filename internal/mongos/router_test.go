package mongos

import (
	"errors"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/sharding"
	"docstore/internal/storage"
)

// newTestRouter builds a 3-shard router.
func newTestRouter(t *testing.T, opts Options) *Router {
	t.Helper()
	cfg := sharding.NewConfigServer()
	r := NewRouter(cfg, opts)
	for _, name := range []string{"Shard1", "Shard2", "Shard3"} {
		r.AddShard(name, mongod.NewServer(mongod.Options{Name: name}))
	}
	return r
}

func TestRouterShardRegistration(t *testing.T) {
	r := newTestRouter(t, Options{})
	if got := r.ShardNames(); len(got) != 3 || got[0] != "Shard1" {
		t.Fatalf("ShardNames = %v", got)
	}
	if r.Shard("Shard2") == nil || r.Shard("nope") != nil {
		t.Fatalf("Shard lookup broken")
	}
	if r.PrimaryShard() == nil || r.PrimaryShard().Name() != "Shard1" {
		t.Fatalf("primary shard wrong")
	}
	// Every shard is registered with the config server: a hashed collection
	// pre-splits over all three.
	meta, err := r.EnableSharding("db", "h", bson.D("k", "hashed"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := meta.AllShards(); len(got) != 3 {
		t.Fatalf("config server shards = %v", got)
	}
	// Duplicate registration is a no-op.
	r.AddShard("Shard1", mongod.NewServer(mongod.Options{Name: "Shard1"}))
	if len(r.ShardNames()) != 3 {
		t.Fatalf("duplicate AddShard changed the shard list")
	}
	// Empty router has no primary.
	empty := NewRouter(sharding.NewConfigServer(), Options{})
	if empty.PrimaryShard() != nil {
		t.Fatalf("empty router should have no primary")
	}
}

func TestUnshardedCollectionGoesToPrimary(t *testing.T) {
	r := newTestRouter(t, Options{})
	for i := 0; i < 10; i++ {
		if _, err := r.Insert("db", "plain", bson.D(bson.IDKey, i, "v", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Shard("Shard1").Database("db").Collection("plain").Count(); got != 10 {
		t.Fatalf("primary shard holds %d docs", got)
	}
	if got := r.Shard("Shard2").Database("db").Collection("plain").Count(); got != 0 {
		t.Fatalf("non-primary shard holds %d docs", got)
	}
	docs, err := r.Find("db", "plain", bson.D("v", bson.D("$lt", 5)), storage.FindOptions{})
	if err != nil || len(docs) != 5 {
		t.Fatalf("Find on unsharded = %d, %v", len(docs), err)
	}
}

func TestShardedInsertDistributionAndTargetedFind(t *testing.T) {
	r := newTestRouter(t, Options{})
	meta, err := r.EnableSharding("db", "sales", bson.D("k", "hashed"), 0)
	if err != nil {
		t.Fatal(err)
	}
	var docs []*bson.Doc
	for i := 0; i < 900; i++ {
		docs = append(docs, bson.D(bson.IDKey, i, "k", i, "v", i%10))
	}
	if _, err := r.InsertMany("db", "sales", docs); err != nil {
		t.Fatal(err)
	}
	// All three shards received data.
	populated := 0
	total := 0
	for _, name := range r.ShardNames() {
		n := r.Shard(name).Database("db").Collection("sales").Count()
		total += n
		if n > 0 {
			populated++
		}
	}
	if populated != 3 || total != 900 {
		t.Fatalf("distribution: %d shards populated, %d total docs", populated, total)
	}
	if err := meta.Validate(); err != nil {
		t.Fatalf("metadata invalid: %v", err)
	}

	// A query pinning the shard key is targeted to one shard.
	r.ResetStats()
	out, err := r.Find("db", "sales", bson.D("k", 123), storage.FindOptions{})
	if err != nil || len(out) != 1 {
		t.Fatalf("targeted find = %d docs, %v", len(out), err)
	}
	st := r.Stats()
	if st.TargetedQueries != 1 || st.BroadcastQueries != 0 {
		t.Fatalf("stats after targeted find = %+v", st)
	}
	if st.ShardCalls != 1 {
		t.Fatalf("targeted find used %d shard calls", st.ShardCalls)
	}

	// A query without the shard key is broadcast to every shard.
	r.ResetStats()
	out, err = r.Find("db", "sales", bson.D("v", 3), storage.FindOptions{})
	if err != nil || len(out) != 90 {
		t.Fatalf("broadcast find = %d docs, %v", len(out), err)
	}
	st = r.Stats()
	if st.BroadcastQueries != 1 || st.ShardCalls != 3 {
		t.Fatalf("stats after broadcast find = %+v", st)
	}

	// A shard key constrained to no value at all ($in over a dimension find
	// that matched nothing) is routed as it was — no worse: every shard is
	// asked — but each shard answers from the shard-key index without
	// examining a document, where it used to scan its whole chunk.
	r.ResetStats()
	examined := func() (n int64) {
		for _, name := range r.ShardNames() {
			n += r.Shard(name).DocsExamined()
		}
		return n
	}
	before := examined()
	out, err = r.Find("db", "sales", bson.D("k", bson.D("$in", bson.A()), "v", 3), storage.FindOptions{})
	if err != nil || len(out) != 0 {
		t.Fatalf("find on an empty $in = %d docs, %v", len(out), err)
	}
	if st = r.Stats(); st.ShardCalls > 3 {
		t.Fatalf("find on an empty $in used %d shard calls, want at most one per shard", st.ShardCalls)
	}
	if got := examined() - before; got != 0 {
		t.Fatalf("find on an empty $in examined %d documents across the shards, want 0", got)
	}

	n, err := r.Count("db", "sales", bson.D("v", 3))
	if err != nil || n != 90 {
		t.Fatalf("Count = %d, %v", n, err)
	}
}

// TestRouterCountMatchesFind checks the per-shard count against a routed
// find, over nil, broadcast and targeted filters on a sharded and an
// unsharded collection: the same number, one shard call per targeted shard,
// and no document merged.
func TestRouterCountMatchesFind(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "sharded", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	for _, coll := range []string{"sharded", "plain"} {
		for i := 0; i < 300; i++ {
			if _, err := r.Insert("db", coll, bson.D(bson.IDKey, i, "k", i, "v", i%7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	filters := []*bson.Doc{nil, bson.D("v", 3), bson.D("k", 42), bson.D("k", bson.D("$in", bson.A(1, 2, 400)))}
	for _, coll := range []string{"sharded", "plain"} {
		for _, filter := range filters {
			docs, err := r.Find("db", coll, filter, storage.FindOptions{})
			if err != nil {
				t.Fatal(err)
			}
			targets, _ := r.targetShards(r.config.Metadata(namespace("db", coll)), filter)
			before := r.Stats()
			n, err := r.Count("db", coll, filter)
			if err != nil {
				t.Fatal(err)
			}
			after := r.Stats()
			if n != len(docs) {
				t.Fatalf("%s %v: Count = %d, Find returned %d", coll, filter, n, len(docs))
			}
			if calls := after.ShardCalls - before.ShardCalls; calls != int64(len(targets)) {
				t.Fatalf("%s %v: Count made %d shard calls, want %d", coll, filter, calls, len(targets))
			}
			if after.DocsMerged != before.DocsMerged {
				t.Fatalf("%s %v: Count merged %d documents", coll, filter, after.DocsMerged-before.DocsMerged)
			}
		}
	}
}

func TestRangeShardedTargeting(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "orders", bson.D("k", 1), 2048); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := r.Insert("db", "orders", bson.D(bson.IDKey, i, "k", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Range sharding keeps all chunks on one shard until balanced; reassign
	// some chunks so range targeting is observable.
	meta := r.config.Metadata("db.orders")
	// Move documents according to a balanced chunk layout: simulate by simply
	// checking that a shard-key range query is not broadcast when the chunks
	// it needs live on fewer shards than the cluster has.
	shards, targeted := r.targetShards(meta, bson.D("k", bson.D("$gte", 0, "$lte", 10)))
	if len(shards) != 1 || !targeted {
		t.Fatalf("range targeting = %v (targeted=%v)", shards, targeted)
	}
	// An $in on the shard key is also targeted.
	shards, targeted = r.targetShards(meta, bson.D("k", bson.D("$in", bson.A(1, 2, 3))))
	if len(shards) != 1 || !targeted {
		t.Fatalf("$in targeting = %v (targeted=%v)", shards, targeted)
	}
	// No shard-key constraint: broadcast to every shard owning chunks.
	shards, targeted = r.targetShards(meta, bson.D("other", 1))
	if targeted || len(shards) == 0 {
		t.Fatalf("missing-key targeting = %v (targeted=%v)", shards, targeted)
	}
}

func TestRouterSortSkipLimitMerge(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "c", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := r.Insert("db", "c", bson.D(bson.IDKey, i, "k", i, "v", 99-i)); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := r.Find("db", "c", nil, storage.FindOptions{
		Sort:  query.MustParseSort(bson.D("v", 1)),
		Skip:  10,
		Limit: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 5 {
		t.Fatalf("got %d docs", len(docs))
	}
	for i, d := range docs {
		v, _ := d.Get("v")
		if v != int64(10+i) {
			t.Fatalf("doc %d v = %v, want %d (global sort violated)", i, v, 10+i)
		}
	}
	// Skip beyond the end.
	docs, err = r.Find("db", "c", nil, storage.FindOptions{Skip: 1000})
	if err != nil || len(docs) != 0 {
		t.Fatalf("skip beyond end = %d docs, %v", len(docs), err)
	}
}

func TestRouterUpdateAndDelete(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "c", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := r.Insert("db", "c", bson.D(bson.IDKey, i, "k", i, "flag", i%3)); err != nil {
			t.Fatal(err)
		}
	}
	// Broadcast multi-update.
	res, err := r.Update("db", "c", query.UpdateSpec{
		Query:  bson.D("flag", 0),
		Update: bson.D("$set", bson.D("updated", true)),
		Multi:  true,
	})
	if err != nil || res.Matched != 100 || res.Modified != 100 {
		t.Fatalf("broadcast update = %+v, %v", res, err)
	}
	// Targeted single update by shard key.
	res, err = r.Update("db", "c", query.UpdateSpec{
		Query:  bson.D("k", 17),
		Update: bson.D("$set", bson.D("updated", "single")),
	})
	if err != nil || res.Matched != 1 {
		t.Fatalf("targeted update = %+v, %v", res, err)
	}
	// Broadcast delete.
	n, err := r.Delete("db", "c", bson.D("flag", 2), true)
	if err != nil || n != 100 {
		t.Fatalf("broadcast delete = %d, %v", n, err)
	}
	total, _ := r.Count("db", "c", nil)
	if total != 200 {
		t.Fatalf("count after delete = %d", total)
	}
	// Targeted single delete (k=16 has flag 1, so it survived the broadcast
	// delete above).
	n, err = r.Delete("db", "c", bson.D("k", 16), false)
	if err != nil || n != 1 {
		t.Fatalf("targeted delete = %d, %v", n, err)
	}
}

func TestRouterAggregateShardedGroup(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "sales", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if _, err := r.Insert("db", "sales", bson.D(
			bson.IDKey, i, "k", i, "item", i%6, "qty", 1, "year", 2000+i%2)); err != nil {
			t.Fatal(err)
		}
	}
	stages := []*bson.Doc{
		bson.D("$match", bson.D("year", 2001)),
		bson.D("$group", bson.D(bson.IDKey, "$item", "total", bson.D("$sum", "$qty"))),
		bson.D("$sort", bson.D(bson.IDKey, 1)),
		bson.D("$out", "agg_out"),
	}
	out, err := r.Aggregate("db", "sales", stages)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 { // items 1, 3, 5 occur in year 2001
		t.Fatalf("groups = %d", len(out))
	}
	for _, g := range out {
		if v, _ := g.Get("total"); v != int64(100) {
			t.Fatalf("group %s total wrong", g)
		}
	}
	// $out landed on the primary shard.
	if got := r.PrimaryShard().Database("db").Collection("agg_out").Count(); got != 3 {
		t.Fatalf("merge output on primary shard = %d docs", got)
	}
	// The router must give the same answer as running the same pipeline over
	// an equivalent stand-alone collection.
	standalone := mongod.NewServer(mongod.Options{})
	for i := 0; i < 600; i++ {
		_, _ = standalone.Database("db").Insert("sales", bson.D(
			bson.IDKey, i, "k", i, "item", i%6, "qty", 1, "year", 2000+i%2))
	}
	reference, err := standalone.Database("db").Aggregate("sales", stages[:3])
	if err != nil {
		t.Fatal(err)
	}
	if len(reference) != len(out) {
		t.Fatalf("sharded vs standalone group count mismatch: %d vs %d", len(out), len(reference))
	}
	for i := range reference {
		if !reference[i].EqualUnordered(out[i]) {
			t.Fatalf("group %d differs: %s vs %s", i, reference[i], out[i])
		}
	}
	// Errors propagate.
	if _, err := r.Aggregate("db", "sales", []*bson.Doc{bson.D("$bogus", 1)}); err == nil {
		t.Fatalf("invalid pipeline should fail")
	}
	// Aggregation over an unsharded collection with no local prefix.
	if _, err := r.Insert("db", "plain", bson.D(bson.IDKey, 1, "x", 5)); err != nil {
		t.Fatal(err)
	}
	out, err = r.Aggregate("db", "plain", []*bson.Doc{
		bson.D("$group", bson.D(bson.IDKey, nil, "n", bson.D("$sum", 1))),
	})
	if err != nil || len(out) != 1 {
		t.Fatalf("unsharded aggregate = %v, %v", out, err)
	}
}

func TestRouterEnsureIndexOnAllShards(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "c", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.EnsureIndex("db", "c", bson.D("v", 1), false); err != nil {
		t.Fatal(err)
	}
	for _, name := range r.ShardNames() {
		idx := r.Shard(name).Database("db").Collection("c").Index("v_1")
		if idx == nil {
			t.Fatalf("shard %s missing index", name)
		}
	}
	if err := r.EnsureIndex("db", "c", bson.D("v", 7), false); err == nil {
		t.Fatalf("bad index spec should fail")
	}
	// EnableSharding validates its key and rejects re-sharding.
	if _, err := r.EnableSharding("db", "c", bson.D("other", 1), 0); err == nil {
		t.Fatalf("re-sharding should fail")
	}
	if _, err := r.EnableSharding("db", "c2", bson.D("x", true), 0); err == nil {
		t.Fatalf("invalid key should fail")
	}
}

func TestRouterNetworkLatencySimulation(t *testing.T) {
	r := newTestRouter(t, Options{NetworkLatency: 2 * time.Millisecond})
	if _, err := r.EnableSharding("db", "c", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := r.Insert("db", "c", bson.D(bson.IDKey, i, "k", i)); err != nil {
			t.Fatal(err)
		}
	}
	// A broadcast find issues one remote call per shard; with sequential
	// scatter the elapsed time reflects the summed latency.
	start := time.Now()
	if _, err := r.Find("db", "c", bson.D("other", 1), storage.FindOptions{}); err != nil {
		t.Fatal(err)
	}
	broadcast := time.Since(start)
	start = time.Now()
	if _, err := r.Find("db", "c", bson.D("k", 5), storage.FindOptions{}); err != nil {
		t.Fatal(err)
	}
	targeted := time.Since(start)
	if broadcast < 6*time.Millisecond {
		t.Fatalf("broadcast with 3 shards at 2ms latency took only %v", broadcast)
	}
	if targeted >= broadcast {
		t.Fatalf("targeted (%v) should be faster than broadcast (%v)", targeted, broadcast)
	}
}

func TestRouterParallelScatter(t *testing.T) {
	r := newTestRouter(t, Options{NetworkLatency: 2 * time.Millisecond, Parallel: true})
	if _, err := r.EnableSharding("db", "c", bson.D("k", "hashed"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := r.Insert("db", "c", bson.D(bson.IDKey, i, "k", i)); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	docs, err := r.Find("db", "c", nil, storage.FindOptions{})
	if err != nil || len(docs) != 30 {
		t.Fatalf("parallel find = %d docs, %v", len(docs), err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("parallel broadcast took %v; expected roughly one latency unit", elapsed)
	}
}

// TestRouterFindHintUnknownIndex checks a bad hint fails a routed query with
// the shard-attributed storage error instead of silently scanning, and that
// a hint naming a real per-shard index still routes.
func TestRouterFindHintUnknownIndex(t *testing.T) {
	r := newTestRouter(t, Options{})
	if _, err := r.EnableSharding("db", "rows", bson.D("g", "hashed"), 1<<20); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := r.Insert("db", "rows", bson.D(bson.IDKey, i, "g", i%5, "v", i)); err != nil {
			t.Fatal(err)
		}
	}

	var unknown *storage.ErrUnknownIndex
	if _, err := r.Find("db", "rows", bson.D("v", 3), storage.FindOptions{Hint: "nope_1"}); !errors.As(err, &unknown) {
		t.Fatalf("routed find with bad hint: %v", err)
	}
	if _, err := r.FindCursor("db", "rows", bson.D("v", 3), storage.FindOptions{Hint: "nope_1"}); !errors.As(err, &unknown) {
		t.Fatalf("routed cursor with bad hint: %v", err)
	}

	// Create the index on every shard; the hinted query then works.
	for _, name := range r.ShardNames() {
		if _, err := r.Shard(name).Database("db").EnsureIndex("rows", bson.D("v", 1), false); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := r.Find("db", "rows", bson.D("v", 3), storage.FindOptions{Hint: "v_1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("hinted routed find returned %d docs", len(docs))
	}
}
