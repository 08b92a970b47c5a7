package mongos

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/changestream"
	"docstore/internal/mongod"
	"docstore/internal/sharding"
	"docstore/internal/storage"
)

const watchWait = 2 * time.Second

// durableCluster builds a router over n durable shards whose data
// directories live under dir, so a second call with the same dir restarts
// the cluster from its logs.
func durableCluster(t *testing.T, dir string, n int) *Router {
	t.Helper()
	r := NewRouter(sharding.NewConfigServer(), Options{Parallel: true})
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("Shard%d", i)
		s := mongod.NewServer(mongod.Options{Name: name})
		if _, err := s.EnableDurability(mongod.Durability{Dir: filepath.Join(dir, name)}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.CloseDurability() })
		r.AddShard(name, s)
	}
	return r
}

// collectShardIDs drains events until count documents were observed,
// asserting per-shard non-decreasing LSN order and exactly-once delivery
// into seen.
func collectShardIDs(t *testing.T, stream changestream.Stream, seen map[string]bool, lastLSN map[string]int64, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		ev, err := stream.Next(watchWait)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if ev == nil {
			t.Fatalf("stream went quiet after %d of %d events", i, count)
		}
		if ev.Shard == "" {
			t.Fatalf("cluster event without shard: %v", ev.Doc())
		}
		if ev.Token.LSN < lastLSN[ev.Shard] {
			t.Fatalf("shard %s LSN went backwards: %d after %d", ev.Shard, ev.Token.LSN, lastLSN[ev.Shard])
		}
		lastLSN[ev.Shard] = ev.Token.LSN
		id, _ := ev.DocumentKey.Get(bson.IDKey)
		key := fmt.Sprint(id)
		if seen[key] {
			t.Fatalf("duplicate event for %s", key)
		}
		seen[key] = true
	}
}

// TestClusterWatchExactlyOnce is the acceptance scenario: a mongos watcher
// over a 4-shard cluster under concurrent unordered bulk writes observes
// every committed write exactly once, in non-decreasing LSN order per shard
// — and, after closing mid-stream, resumes from its composite token with no
// loss or duplication, including across a full cluster restart.
func TestClusterWatchExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	r := durableCluster(t, dir, 4)
	if _, err := r.EnableSharding("db", "rows", bson.D("k", "hashed")); err != nil {
		t.Fatal(err)
	}

	stream, err := r.Watch("db", "rows", nil, "")
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 120
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i += 20 {
				ops := make([]storage.WriteOp, 0, 20)
				for j := 0; j < 20; j++ {
					id := fmt.Sprintf("w%d-%d", w, i+j)
					ops = append(ops, storage.InsertWriteOp(bson.D(bson.IDKey, id, "k", id)))
				}
				res := r.BulkWrite("db", "rows", ops, storage.BulkOptions{})
				if err := res.FirstError(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	const total = writers * perWriter
	seen := make(map[string]bool)
	lastLSN := make(map[string]int64)

	// Consume the first half concurrently with the writers, then close the
	// stream mid-flight and remember its composite token.
	collectShardIDs(t, stream, seen, lastLSN, total/2)
	token := stream.ResumeToken()
	stream.Close()
	wg.Wait()

	if _, err := changestream.ParseCompositeToken(token); err != nil {
		t.Fatalf("composite token %q: %v", token, err)
	}

	// Restart the whole cluster from its logs, then resume from the token.
	for _, name := range r.ShardNames() {
		if err := r.Shard(name).CloseDurability(); err != nil {
			t.Fatal(err)
		}
	}
	r2 := durableCluster(t, dir, 4)
	if _, err := r2.EnableSharding("db", "rows", bson.D("k", "hashed")); err != nil {
		t.Fatal(err)
	}
	resumed, err := r2.Watch("db", "rows", nil, token)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()

	// New writes after the restart join the tail of the resumed stream.
	const extra = 40
	for i := 0; i < extra; i++ {
		if _, err := r2.Insert("db", "rows", bson.D(bson.IDKey, fmt.Sprintf("post-%d", i), "k", i)); err != nil {
			t.Fatal(err)
		}
	}
	// lastLSN resets: the resumed replay legitimately starts below the live
	// positions the first stream reached.
	collectShardIDs(t, resumed, seen, make(map[string]int64), total/2+extra)
	if ev, err := resumed.Next(50 * time.Millisecond); err != nil || ev != nil {
		t.Fatalf("stream should be quiet after the tail: %v %v", ev, err)
	}
	if len(seen) != total+extra {
		t.Fatalf("observed %d distinct documents, want %d", len(seen), total+extra)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if key := fmt.Sprintf("w%d-%d", w, i); !seen[key] {
				t.Fatalf("committed write %s never observed", key)
			}
		}
	}
	for i := 0; i < extra; i++ {
		if key := fmt.Sprintf("post-%d", i); !seen[key] {
			t.Fatalf("post-restart write %s never observed", key)
		}
	}
}

// TestClusterWatchPipelinePushdown checks the $match pipeline reaches every
// shard stream.
func TestClusterWatchPipelinePushdown(t *testing.T) {
	r := durableCluster(t, t.TempDir(), 2)
	if _, err := r.EnableSharding("db", "rows", bson.D("k", "hashed")); err != nil {
		t.Fatal(err)
	}
	stream, err := r.Watch("db", "rows", []*bson.Doc{
		bson.D("$match", bson.D("fullDocument.keep", true)),
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	for i := 0; i < 20; i++ {
		doc := bson.D(bson.IDKey, i, "k", i, "keep", i%4 == 0)
		if _, err := r.Insert("db", "rows", doc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		ev, err := stream.Next(watchWait)
		if err != nil || ev == nil {
			t.Fatalf("event %d: %v %v", i, ev, err)
		}
		if keep, _ := ev.FullDocument.Get("keep"); keep != true {
			t.Fatalf("filter leaked %v", ev.FullDocument)
		}
	}
	if ev, err := stream.Next(50 * time.Millisecond); err != nil || ev != nil {
		t.Fatalf("expected quiet stream, got %v %v", ev, err)
	}
}

// TestClusterWatchUnknownShardToken checks a composite token naming a shard
// the router does not know is rejected.
func TestClusterWatchUnknownShardToken(t *testing.T) {
	r := durableCluster(t, t.TempDir(), 2)
	tok := changestream.CompositeToken{"Ghost": {LSN: 1, Op: 0}}
	if _, err := r.Watch("db", "rows", nil, tok.String()); err == nil {
		t.Fatal("unknown shard in token should be rejected")
	}
}

// TestClusterWatchShardDeathTearsDownStream checks one shard's stream dying
// (shard shutdown here) surfaces as a terminal error on the merged stream
// instead of silently omitting that shard's events forever.
func TestClusterWatchShardDeathTearsDownStream(t *testing.T) {
	r := durableCluster(t, t.TempDir(), 2)
	stream, err := r.Watch("db", "rows", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if err := r.Shard("Shard1").CloseDurability(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ev, err := stream.Next(100 * time.Millisecond)
		if err != nil {
			break // the shard death surfaced
		}
		if ev != nil {
			t.Fatalf("unexpected event: %v", ev.Doc())
		}
		if time.Now().After(deadline) {
			t.Fatal("merged stream kept running after a shard stream died")
		}
	}
	// Both shards' subscriptions are torn down with the stream.
	if st := r.Shard("Shard2").ChangeStreams().Stats(); st.Watchers != 0 {
		t.Fatalf("surviving shard still has %d watchers", st.Watchers)
	}
}

// TestClusterWatchCloseReleasesPumps checks Close tears down every per-shard
// subscription (no leaked watcher goroutine or buffer).
func TestClusterWatchCloseReleasesPumps(t *testing.T) {
	r := durableCluster(t, t.TempDir(), 3)
	stream, err := r.Watch("db", "rows", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range r.ShardNames() {
		if st := r.Shard(name).ChangeStreams().Stats(); st.Watchers != 1 {
			t.Fatalf("shard %s watchers = %d before close", name, st.Watchers)
		}
	}
	stream.Close()
	for _, name := range r.ShardNames() {
		if st := r.Shard(name).ChangeStreams().Stats(); st.Watchers != 0 {
			t.Fatalf("shard %s watchers = %d after close", name, st.Watchers)
		}
	}
	// Close is idempotent and Next reports the closed stream.
	stream.Close()
	if _, err := stream.Next(10 * time.Millisecond); err == nil {
		t.Fatal("Next on a closed stream should fail")
	}
}
