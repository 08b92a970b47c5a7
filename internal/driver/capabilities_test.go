package driver

import (
	"testing"

	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/sharding"
)

// TestCapabilitiesTrackDurability checks the capability-discovery API:
// cursor and bulk support are universal,
// watch support follows the deployment's durability at runtime.
func TestCapabilitiesTrackDurability(t *testing.T) {
	server := mongod.NewServer(mongod.Options{})
	store := NewStandalone(server.Database("app"))

	caps := Capabilities(store)
	if !caps.Cursors || !caps.Bulk {
		t.Fatalf("capabilities = %s, want cursors and bulk always on", caps)
	}
	if caps.Watch {
		t.Fatalf("capabilities = %s: watch reported against a non-durable server", caps)
	}
	if got, want := caps.String(), "cursors,bulk"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}

	if _, err := server.EnableDurability(mongod.Durability{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer server.CloseDurability()
	if caps := Capabilities(store); !caps.Watch {
		t.Fatalf("capabilities = %s after EnableDurability, want watch", caps)
	}

	// A sharded deployment only watches when every shard is durable.
	router := mongos.NewRouter(sharding.NewConfigServer(), mongos.Options{})
	router.AddShard("Shard1", server)
	router.AddShard("Shard2", mongod.NewServer(mongod.Options{Name: "Shard2"}))
	sharded := NewSharded(router, "app")
	if caps := Capabilities(sharded); caps.Watch {
		t.Fatalf("capabilities = %s with one non-durable shard, want no watch", caps)
	}
}
