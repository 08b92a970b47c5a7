package cluster

import (
	"testing"

	"docstore/internal/bson"
	"docstore/internal/storage"
)

func TestBuildClusterTopology(t *testing.T) {
	c := MustBuild(Config{Shards: 3, ShardRAMBytes: 8 << 30})
	if len(c.Shards()) != 3 {
		t.Fatalf("shard count = %d", len(c.Shards()))
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
	for i, s := range c.Shards() {
		if st := s.Status(); st.RAMBytes != 8<<30 {
			t.Fatalf("shard %d status RAM = %d, want 8 GiB", i, st.RAMBytes)
		}
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
	var dataSize int64
	for _, s := range c.Shards() {
		dataSize += s.Status().DataSizeBytes
	}
	if sharded := c.ConfigServer().ShardedNamespaces(); len(sharded) != 1 || dataSize <= 0 {
		t.Fatalf("sharded namespaces %v, data size %d", sharded, dataSize)
	}
}
