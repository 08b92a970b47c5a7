// Sharding: build a three-shard cluster (the thesis' Figure 3.1 topology),
// shard a collection, watch chunks split and balance, and observe the
// difference between targeted and broadcast queries — the mechanism behind
// the paper's Query 50 vs Queries 7/21/46 result.
package main

import (
	"fmt"
	"log"

	"docstore/internal/bson"
	"docstore/internal/cluster"
	"docstore/internal/storage"
)

func main() {
	// 3 shards, 1 config server, 1 query router, as in Figure 3.1.
	c := cluster.MustBuild(cluster.Config{
		Shards:         3,
		ShardRAMBytes:  8 << 30,
		ChunkSizeBytes: 64 << 10, // small chunks so splitting is visible at example scale
	})

	// Shard the orders collection on a hashed customer id: hashed sharding
	// pre-splits the key space evenly across the shards (§2.1.3.3).
	if _, err := c.ShardCollection("shop", "orders", bson.D("customer_id", "hashed")); err != nil {
		log.Fatal(err)
	}
	router := c.Router()
	for i := 0; i < 3000; i++ {
		if _, err := router.Insert("shop", "orders", bson.D(
			bson.IDKey, i,
			"customer_id", i%500,
			"amount", float64(i%97)+0.99,
			"region", []string{"east", "west", "north"}[i%3],
		)); err != nil {
			log.Fatal(err)
		}
	}

	meta := c.ConfigServer().Metadata("shop.orders")
	fmt.Println("chunk distribution after loading 3000 orders:")
	for shard, n := range meta.ChunkCountByShard() {
		fmt.Printf("  %-8s %d chunks\n", shard, n)
	}
	for _, s := range c.Shards() {
		fmt.Printf("  %-8s %d documents\n", s.Name(), s.Database("shop").Collection("orders").Count())
	}

	// Targeted query: the filter pins the shard key, so the router contacts a
	// single shard.
	router.ResetStats()
	docs, err := router.Find("shop", "orders", bson.D("customer_id", 42), storage.FindOptions{})
	if err != nil {
		log.Fatal(err)
	}
	stats := router.Stats()
	fmt.Printf("\ntargeted query (customer_id=42): %d docs, %d shard call(s), targeted=%d broadcast=%d\n",
		len(docs), stats.ShardCalls, stats.TargetedQueries, stats.BroadcastQueries)

	// Broadcast query: no shard key in the filter, every shard is consulted
	// and the router merges the partial results.
	router.ResetStats()
	docs, err = router.Find("shop", "orders", bson.D("region", "west", "amount", bson.D("$gt", 50)), storage.FindOptions{})
	if err != nil {
		log.Fatal(err)
	}
	stats = router.Stats()
	fmt.Printf("broadcast query (region/amount): %d docs, %d shard call(s), targeted=%d broadcast=%d\n",
		len(docs), stats.ShardCalls, stats.TargetedQueries, stats.BroadcastQueries)

	// Sharded aggregation: the $match/$project prefix runs on each shard, the
	// $group merge runs on the router.
	out, err := router.Aggregate("shop", "orders", []*bson.Doc{
		bson.D("$match", bson.D("amount", bson.D("$gte", 10.0))),
		bson.D("$group", bson.D(bson.IDKey, "$region", "revenue", bson.D("$sum", "$amount"), "orders", bson.D("$sum", 1))),
		bson.D("$sort", bson.D("revenue", -1)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrevenue by region (sharded aggregation):")
	for _, d := range out {
		fmt.Printf("  %s\n", d)
	}
}
