package cluster

import (
	"testing"

	"docstore/internal/bson"
	"docstore/internal/storage"
)

func TestShardCalculatorThesisExamples(t *testing.T) {
	// §2.1.3.2 example i: 1.5 TB data / 256 GB per shard ≈ 6 shards.
	n, err := ShardsForDiskStorage(1536<<30, 256<<30)
	if err != nil || n != 6 {
		t.Fatalf("disk sizing = %d, %v; want 6", n, err)
	}
	// Example ii: 200 GB working set / 64 GB RAM ≈ 4 shards (no reserve in
	// the thesis' example).
	n, err = ShardsForRAM(200<<30, 64<<30, 0)
	if err != nil || n != 4 {
		t.Fatalf("RAM sizing = %d, %v; want 4", n, err)
	}
	// Example iii: 12000 required IOPS / 5000 per shard ≈ 3 shards.
	n, err = ShardsForIOPS(12000, 5000)
	if err != nil || n != 3 {
		t.Fatalf("IOPS sizing = %d, %v; want 3", n, err)
	}
	// Example iv: N = G / (S * 0.7).
	n, err = ShardsForOPS(10000, 3000, 0)
	if err != nil || n != 5 {
		t.Fatalf("OPS sizing = %d, %v; want 5", n, err)
	}
	// The thesis' own cluster: 9.94 GB of data, 8 GB RAM shards with a 2 GB
	// reserve -> ceil(9.94/6) = 2 by RAM, which the thesis rounds up to 3
	// to leave room for indexes and intermediate collections.
	gb := float64(1 << 30)
	n, err = ShardsForRAM(int64(9.94*gb), 8<<30, 2<<30)
	if err != nil || n != 2 {
		t.Fatalf("thesis RAM sizing = %d, %v; want 2", n, err)
	}
}

func TestShardCalculatorEdgeCases(t *testing.T) {
	if _, err := ShardsForDiskStorage(1, 0); err == nil {
		t.Fatalf("zero shard disk should error")
	}
	if _, err := ShardsForRAM(1, 1<<30, 2<<30); err == nil {
		t.Fatalf("reserve exceeding RAM should error")
	}
	if _, err := ShardsForIOPS(1, 0); err == nil {
		t.Fatalf("zero shard IOPS should error")
	}
	if _, err := ShardsForOPS(1, 0, 0.7); err == nil {
		t.Fatalf("zero single-server OPS should error")
	}
	if n, _ := ShardsForDiskStorage(0, 1<<30); n != 1 {
		t.Fatalf("zero storage should still need one shard")
	}
	if n, _ := ShardsForRAM(0, 4<<30, 0); n != 1 {
		t.Fatalf("zero working set should still need one shard")
	}
	if n, _ := ShardsForIOPS(0, 100); n != 1 {
		t.Fatalf("zero IOPS should still need one shard")
	}
	if n, _ := ShardsForOPS(0, 100, 0.7); n != 1 {
		t.Fatalf("zero OPS should still need one shard")
	}
}

func TestRecommendShards(t *testing.T) {
	res, err := RecommendShards(SizingInputs{
		StorageBytes:    1536 << 30,
		ShardDiskBytes:  256 << 30,
		WorkingSetBytes: 200 << 30,
		ShardRAMBytes:   64 << 30,
		RequiredIOPS:    12000,
		ShardIOPS:       5000,
		RequiredOPS:     10000,
		SingleServerOPS: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ByDisk != 6 || res.ByRAM != 4 || res.ByIOPS != 3 || res.ByOPS != 5 {
		t.Fatalf("per-factor results = %+v", res)
	}
	if res.Recommended != 6 {
		t.Fatalf("Recommended = %d, want the max (6)", res.Recommended)
	}
	// No inputs: one shard.
	res, err = RecommendShards(SizingInputs{})
	if err != nil || res.Recommended != 1 {
		t.Fatalf("empty inputs = %+v, %v", res, err)
	}
	// Errors propagate.
	if _, err := RecommendShards(SizingInputs{WorkingSetBytes: 1, ShardRAMBytes: 1, ReserveRAMBytes: 2}); err == nil {
		t.Fatalf("invalid RAM inputs should error")
	}
	if _, err := RecommendShards(SizingInputs{RequiredOPS: 1, SingleServerOPS: 1, ShardingOverhead: -1}); err == nil {
		t.Fatalf("invalid OPS inputs should error")
	}
}

func TestBuildClusterTopology(t *testing.T) {
	c := MustBuild(Config{Shards: 3, ShardRAMBytes: 8 << 30})
	if c.ShardCount() != 3 || len(c.Shards()) != 3 {
		t.Fatalf("shard count = %d", c.ShardCount())
	}
	if c.Router() == nil || c.ConfigServer() == nil {
		t.Fatalf("router or config server missing")
	}
	if c.Shards()[0].Name() != "Shard1" || c.Shards()[2].Name() != "Shard3" {
		t.Fatalf("shard names = %v, %v", c.Shards()[0].Name(), c.Shards()[2].Name())
	}
	if _, err := Build(Config{Shards: 0}); err == nil {
		t.Fatalf("zero shards should fail")
	}
	st := c.Status()
	if len(st.Shards) != 3 {
		t.Fatalf("status shards = %d", len(st.Shards))
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustBuild(Config{Shards: -1})
}

func TestClusterShardLoadAndQuery(t *testing.T) {
	c := MustBuild(Config{Shards: 3, ChunkSizeBytes: 4096})
	if _, err := c.ShardCollection("Dataset", "store_sales", bson.D("ss_item_sk", 1)); err != nil {
		t.Fatal(err)
	}
	router := c.Router()
	for i := 0; i < 2000; i++ {
		if _, err := router.Insert("Dataset", "store_sales", bson.D(
			bson.IDKey, i, "ss_item_sk", i%500, "ss_quantity", i%7)); err != nil {
			t.Fatal(err)
		}
	}
	// Range sharding starts with one chunk on Shard1, and its splits stay
	// there: every document lands on Shard1.
	if n := c.Shards()[0].Database("Dataset").Collection("store_sales").Count(); n != 2000 {
		t.Fatalf("Shard1 holds %d docs, want 2000", n)
	}
	if len(c.ConfigServer().Metadata("Dataset.store_sales").Chunks()) < 2 {
		t.Fatalf("2000 inserts into 4 KB chunks split nothing")
	}
	// Queries through the router see every document, and a targeted query
	// finds its rows.
	n, err := router.Count("Dataset", "store_sales", nil)
	if err != nil || n != 2000 {
		t.Fatalf("router count = %d, %v", n, err)
	}
	docs, err := router.Find("Dataset", "store_sales", bson.D("ss_item_sk", 123), storage.FindOptions{})
	if err != nil || len(docs) != 4 {
		t.Fatalf("targeted find = %d docs, %v", len(docs), err)
	}
	st := c.Status()
	if len(st.ShardedColls) != 1 || st.TotalDataSize <= 0 {
		t.Fatalf("cluster status = %+v", st)
	}
}
