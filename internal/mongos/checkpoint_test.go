package mongos

import (
	"os"
	"path/filepath"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/sharding"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// TestClusterCheckpointSingleCapturePoint proves Router.Checkpoint cuts the
// whole cluster at one capture point. A writer issues causally ordered
// inserts — document i+1 only after document i is acknowledged — into a
// hash-sharded collection, so consecutive documents land on different
// shards. The cluster checkpoint runs while the writer flows; each shard's
// WAL is then destroyed so recovery restores the checkpoints alone. If the
// shards were captured independently the restored id set would have holes
// (a later document on one shard, an earlier one missing on another); a
// single capture point restores exactly a prefix 0..m-1 of the insert
// sequence.
func TestClusterCheckpointSingleCapturePoint(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	build := func() *Router {
		r := NewRouter(sharding.NewConfigServer(), Options{Parallel: true})
		for i, dir := range dirs {
			shard := mongod.NewServer(mongod.Options{Name: "Shard" + string(rune('1'+i))})
			if _, err := shard.EnableDurability(mongod.Durability{Dir: dir, Sync: wal.SyncNone}); err != nil {
				t.Fatalf("EnableDurability shard %d: %v", i, err)
			}
			r.AddShard("Shard"+string(rune('1'+i)), shard)
		}
		// Sharding metadata is in-memory and outside the capture: every
		// incarnation of the cluster re-issues its shardCollection commands.
		if _, err := r.EnableSharding("db", "seq", bson.D("k", "hashed")); err != nil {
			t.Fatalf("EnableSharding: %v", err)
		}
		return r
	}
	r := build()

	const total = 500
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			if _, err := r.Insert("db", "seq", bson.D(bson.IDKey, i, "k", i)); err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			if i == 60 {
				close(started)
			}
		}
	}()

	<-started
	st, err := r.Checkpoint()
	if err != nil {
		t.Fatalf("cluster checkpoint: %v", err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("checkpointed %d shards, want 2", len(st.Shards))
	}
	for name, shard := range st.Shards {
		if shard.Skipped || shard.Collections == 0 {
			t.Fatalf("shard %s checkpoint = %+v, want a fresh capture with collections", name, shard)
		}
	}
	<-done

	// Crash the whole cluster and lose every shard's log, so recovery can
	// only restore what the captures pinned.
	for _, dir := range dirs {
		segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range segs {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}
	}
	r2 := build()

	docs, err := r2.Find("db", "seq", nil, storage.FindOptions{})
	if err != nil {
		t.Fatalf("post-restore find: %v", err)
	}
	if len(docs) < 60 {
		t.Fatalf("capture happened after doc 60 yet the cluster restored only %d docs", len(docs))
	}
	seen := make(map[int64]bool, len(docs))
	for _, d := range docs {
		id, ok := bson.AsInt(d.ID())
		if !ok || seen[id] {
			t.Fatalf("restored id %v duplicated or non-numeric", d.ID())
		}
		seen[id] = true
	}
	for i := int64(0); i < int64(len(docs)); i++ {
		if !seen[i] {
			t.Fatalf("cluster restored %d docs but lacks id %d: shards restored to different capture points", len(docs), i)
		}
	}
}
