package queries_test

import (
	"testing"

	"docstore/internal/cluster"
	"docstore/internal/core"
	"docstore/internal/driver"
	"docstore/internal/migrate"
	"docstore/internal/mongod"
	"docstore/internal/queries"
	"docstore/internal/tpcds"
)

// TestQuery50NormalizedEquivalence: Query 50's normalized run, whose store
// keys come from the joined documents and whose store find overlaps the
// intermediate write, gives what the one-call-at-a-time specification gives —
// the same result documents in the same order — stand-alone and through a
// 3-shard router that scatters in parallel or one shard at a time.
func TestQuery50NormalizedEquivalence(t *testing.T) {
	const db = "norm"
	deployments := []struct {
		name  string
		store func(t *testing.T) driver.Store
	}{
		{"standalone", func(*testing.T) driver.Store {
			return driver.NewStandalone(mongod.NewServer(mongod.Options{}).Database(db))
		}},
		{"sharded-parallel", func(t *testing.T) driver.Store { return shardedStore(t, db, true) }},
		{"sharded-sequential", func(t *testing.T) driver.Store { return shardedStore(t, db, false) }},
	}
	params := queries.DefaultParams()
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			store := d.store(t)
			gen := tpcds.NewGenerator(tpcds.ScaleSmall.WithDivisor(1000), 1)
			if _, err := migrate.LoadDataset(store, gen); err != nil {
				t.Fatal(err)
			}
			if err := migrate.EnsureQueryIndexes(store, gen.Schema()); err != nil {
				t.Fatal(err)
			}
			want, err := queries.RunQuery50Sequential(store, params)
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			got, _, err := queries.RunNormalized(store, queries.MustByID(50), params)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("the specification returned no rows: the comparison proves nothing")
			}
			if len(got) != len(want) {
				t.Fatalf("%d results, sequential %d", len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("result %d:\n  got        %s\n  sequential %s", i, got[i], want[i])
				}
			}
		})
	}
}

// shardedStore is a 3-shard cluster with the experiments' shard keys.
func shardedStore(t *testing.T, db string, parallel bool) driver.Store {
	c, err := cluster.Build(cluster.Config{Shards: 3, ParallelScatter: parallel, ChunkSizeBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for fact, key := range core.ShardKeys() {
		if _, err := c.ShardCollection(db, fact, key); err != nil {
			t.Fatal(err)
		}
	}
	return driver.NewSharded(c.Router(), db)
}
