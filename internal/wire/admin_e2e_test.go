package wire

import (
	"strings"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/driver"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/sharding"
	"docstore/internal/wal"
)

// TestCheckpointOpOverTheWire exercises the checkpoint request against a
// stand-alone durable server: the response carries the capture LSN and
// collection count, an immediately repeated checkpoint reports itself
// skipped, and a non-durable server refuses.
func TestCheckpointOpOverTheWire(t *testing.T) {
	backend := mongod.NewServer(mongod.Options{Name: "durable"})
	if _, err := backend.EnableDurability(mongod.Durability{Dir: t.TempDir(), Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backend.CloseDurability() })
	srv := NewServer(backend)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if err := c.Insert("db", "a", bson.D(bson.IDKey, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("db", "b", bson.D(bson.IDKey, 1)); err != nil {
		t.Fatal(err)
	}
	res, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if lsn, _ := bson.AsInt(res.GetOr("lsn", 0)); lsn == 0 {
		t.Fatalf("checkpoint result lsn = %s", res)
	}
	if n, _ := bson.AsInt(res.GetOr("collections", 0)); n != 2 {
		t.Fatalf("checkpoint result collections = %s, want 2", res)
	}
	// Nothing committed since: the next checkpoint is free and says so.
	res, err = c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bson.Truthy(res.GetOr("skipped", false)) {
		t.Fatalf("idle re-checkpoint result = %s, want skipped", res)
	}

	// A server without durability refuses rather than pretending.
	_, plain := startServer(t)
	if _, err := plain.Checkpoint(); err == nil || !strings.Contains(err.Error(), "durability") {
		t.Fatalf("checkpoint without durability: %v, want a durability error", err)
	}
}

// TestRoutedClusterOverTheWire serves a router deployment (the mongos
// role) and drives the sharded surface end to end over a socket:
// shardCollection, fanned-out writes and reads, the shard-union collection
// listing, and a cluster-consistent checkpoint reporting every shard.
func TestRoutedClusterOverTheWire(t *testing.T) {
	router := mongos.NewRouter(sharding.NewConfigServer(), mongos.Options{Parallel: true})
	for _, name := range []string{"s0", "s1"} {
		shard := mongod.NewServer(mongod.Options{Name: name})
		if _, err := shard.EnableDurability(mongod.Durability{Dir: t.TempDir(), Sync: wal.SyncNone}); err != nil {
			t.Fatal(err)
		}
		router.AddShard(name, shard)
	}
	srv := Serve(driver.NewRouted(mongod.NewServer(mongod.Options{Name: "router-front"}), router))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if err := c.ShardCollection("db", "sales", bson.D("k", "hashed")); err != nil {
		t.Fatalf("shardCollection: %v", err)
	}
	docs := make([]*bson.Doc, 40)
	for i := range docs {
		docs[i] = bson.D(bson.IDKey, i, "k", i)
	}
	if n, err := c.InsertMany("db", "sales", docs); err != nil || n != 40 {
		t.Fatalf("InsertMany over router = %d, %v", n, err)
	}
	// Both shards hold a piece: the writes really fanned out.
	for _, name := range router.ShardNames() {
		if got := router.Shard(name).Database("db").Collection("sales").Count(); got == 0 || got == 40 {
			t.Fatalf("shard %s holds %d docs, want a proper split", name, got)
		}
	}
	if n, err := c.Count("db", "sales", bson.D("k", bson.D("$gte", 20))); err != nil || n != 20 {
		t.Fatalf("routed count = %d, %v", n, err)
	}
	got, err := c.Find("db", "sales", nil, bson.D("k", -1), 3)
	if err != nil || len(got) != 3 {
		t.Fatalf("routed sorted find: %v, %v", got, err)
	}
	if k, _ := bson.AsInt(got[0].GetOr("k", 0)); k != 39 {
		t.Fatalf("routed merge-sort returned %s first", got[0])
	}
	colls, err := c.ListCollections("db")
	if err != nil || len(colls) != 1 || colls[0] != "sales" {
		t.Fatalf("routed listCollections = %v, %v", colls, err)
	}

	res, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("cluster checkpoint: %v", err)
	}
	shardsDoc, ok := res.GetOr("shards", nil).(*bson.Doc)
	if !ok {
		t.Fatalf("cluster checkpoint result = %s, want a shards document", res)
	}
	for _, name := range router.ShardNames() {
		entry, ok := shardsDoc.GetOr(name, nil).(*bson.Doc)
		if !ok {
			t.Fatalf("cluster checkpoint missing shard %s: %s", name, res)
		}
		if lsn, _ := bson.AsInt(entry.GetOr("lsn", 0)); lsn == 0 {
			t.Fatalf("shard %s checkpoint lsn = %s", name, entry)
		}
	}

	// shardCollection demands a key document.
	if err := c.ShardCollection("db", "other", nil); err == nil {
		t.Fatalf("shardCollection without keys should fail")
	}
}
