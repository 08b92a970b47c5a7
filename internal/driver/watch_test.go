package driver

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/sharding"
)

// TestWatchStoreBothAdapters checks the deployment-independent change-stream
// interface: the same reactive consumer code observes writes issued through
// the Store API on a stand-alone server and on a sharded cluster alike.
func TestWatchStoreBothAdapters(t *testing.T) {
	dir := t.TempDir()

	standalone := mongod.NewServer(mongod.Options{})
	if _, err := standalone.EnableDurability(mongod.Durability{Dir: filepath.Join(dir, "standalone")}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { standalone.CloseDurability() })

	router := mongos.NewRouter(sharding.NewConfigServer(), mongos.Options{Parallel: true})
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("Shard%d", i)
		s := mongod.NewServer(mongod.Options{Name: name})
		if _, err := s.EnableDurability(mongod.Durability{Dir: filepath.Join(dir, name)}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.CloseDurability() })
		router.AddShard(name, s)
	}
	if _, err := router.EnableSharding("app", "rows", bson.D("k", "hashed")); err != nil {
		t.Fatal(err)
	}

	stores := []Store{
		NewStandalone(standalone.Database("app")),
		NewSharded(router, "app"),
	}
	for _, store := range stores {
		t.Run(store.Name(), func(t *testing.T) {
			stream, err := store.Watch("rows", []*bson.Doc{
				bson.D("$match", bson.D("operationType", "insert")),
			}, "")
			if err != nil {
				t.Fatal(err)
			}
			defer stream.Close()

			const n = 10
			for i := 0; i < n; i++ {
				id := fmt.Sprintf("%s-%d", store.Name(), i)
				if _, err := store.Insert("rows", bson.D(bson.IDKey, id, "k", id)); err != nil {
					t.Fatal(err)
				}
			}
			seen := make(map[string]bool)
			for len(seen) < n {
				ev, err := stream.Next(2 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if ev == nil {
					t.Fatalf("stream went quiet after %d of %d events", len(seen), n)
				}
				id, _ := ev.DocumentKey.Get(bson.IDKey)
				key := fmt.Sprint(id)
				if seen[key] {
					t.Fatalf("duplicate event %s", key)
				}
				seen[key] = true
			}
			if stream.ResumeToken() == "" {
				t.Fatal("stream has no resume token")
			}
		})
	}
}

// TestWatchTracksDurability checks that whether a store can watch follows
// the deployment's durability at runtime: Watch errors on a volatile
// stand-alone server, succeeds once it is durable, and errors behind a
// router while one of its shards is volatile.
func TestWatchTracksDurability(t *testing.T) {
	server := mongod.NewServer(mongod.Options{})
	store := NewStandalone(server.Database("app"))
	if _, err := store.Watch("rows", nil, ""); err == nil {
		t.Fatal("Watch succeeded against a volatile server")
	}

	if _, err := server.EnableDurability(mongod.Durability{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer server.CloseDurability()
	stream, err := store.Watch("rows", nil, "")
	if err != nil {
		t.Fatalf("Watch after EnableDurability: %v", err)
	}
	stream.Close()

	router := mongos.NewRouter(sharding.NewConfigServer(), mongos.Options{})
	router.AddShard("Shard1", server)
	router.AddShard("Shard2", mongod.NewServer(mongod.Options{Name: "Shard2"}))
	if _, err := NewSharded(router, "app").Watch("rows", nil, ""); err == nil {
		t.Fatal("Watch succeeded on a router with a volatile shard")
	}
}
