package translate_test

import (
	"testing"

	"docstore/internal/cluster"
	"docstore/internal/core"
	"docstore/internal/driver"
	"docstore/internal/migrate"
	"docstore/internal/mongod"
	"docstore/internal/queries"
	"docstore/internal/tpcds"
	"docstore/internal/translate"
)

// TestRunSequentialEquivalence: Run, whose calls overlap and whose semi-join
// is written on the server, gives what the one-call-at-a-time specification
// gives for the three Figure 4.8 queries — the same result documents in the
// same order and the same semi-join size — stand-alone and through a 3-shard
// router that scatters in parallel or one shard at a time. The intermediate
// documents keep the fact's _id, which the sequential run drops, so equal
// results also show that nothing downstream reads it.
func TestRunSequentialEquivalence(t *testing.T) {
	const db = "norm"
	scale := tpcds.ScaleSmall.WithDivisor(1000)
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
			gen := tpcds.NewGenerator(scale, 1)
			if _, err := migrate.LoadDataset(store, gen); err != nil {
				t.Fatal(err)
			}
			if err := migrate.EnsureQueryIndexes(store, gen.Schema()); err != nil {
				t.Fatal(err)
			}
			for _, id := range []int{7, 21, 46} {
				plan, ok := queries.MustByID(id).NormalizedPlan(params)
				if !ok {
					t.Fatalf("query %d has no Figure 4.8 plan", id)
				}
				want, err := translate.RunSequential(store, plan)
				if err != nil {
					t.Fatalf("query %d sequential: %v", id, err)
				}
				got, err := translate.Run(store, plan)
				if err != nil {
					t.Fatalf("query %d: %v", id, err)
				}
				if want.IntermediateDocs == 0 || len(want.Docs) == 0 {
					t.Fatalf("query %d: %d intermediate documents, %d results: the comparison proves nothing",
						id, want.IntermediateDocs, len(want.Docs))
				}
				if got.IntermediateDocs != want.IntermediateDocs {
					t.Errorf("query %d: %d intermediate documents, sequential %d", id, got.IntermediateDocs, want.IntermediateDocs)
				}
				if len(got.Docs) != len(want.Docs) {
					t.Fatalf("query %d: %d results, sequential %d", id, len(got.Docs), len(want.Docs))
				}
				for i := range want.Docs {
					if !got.Docs[i].Equal(want.Docs[i]) {
						t.Fatalf("query %d result %d:\n  got        %s\n  sequential %s", id, i, got.Docs[i], want.Docs[i])
					}
				}
			}
		})
	}
}

// shardedStore is a 3-shard cluster with the experiments' shard keys.
func shardedStore(t *testing.T, db string, parallel bool) driver.Store {
	c, err := cluster.Build(cluster.Config{Shards: 3, ParallelScatter: parallel})
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
