package mongos

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
)

// shardedFixture builds a router over three shards with a hash-sharded
// collection spread across them.
func shardedFixture(t *testing.T, opts Options, docs int) *Router {
	t.Helper()
	r := newTestRouter(t, opts)
	if _, err := r.EnableSharding("db", "events", bson.D("k", "hashed"), 16<<10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		doc := bson.D(bson.IDKey, i, "k", i, "g", i%11, "name", fmt.Sprintf("ev-%05d", i))
		if _, err := r.Insert("db", "events", doc); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestRouterFindCursorMatchesFind asserts the streaming merge cursor and the
// materializing Find return the same documents in the same order, across
// sorts, skip/limit and both scatter modes.
func TestRouterFindCursorMatchesFind(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		r := shardedFixture(t, Options{Parallel: parallel}, 500)
		cases := []struct {
			name   string
			filter *bson.Doc
			opts   storage.FindOptions
		}{
			{"broadcast", bson.D("g", 4), storage.FindOptions{}},
			{"targeted", bson.D("k", 123), storage.FindOptions{}},
			{"sorted", bson.D("g", bson.D("$lt", 5)), storage.FindOptions{Sort: query.MustParseSort(bson.D("name", 1))}},
			{"sorted desc", nil, storage.FindOptions{Sort: query.MustParseSort(bson.D("name", -1))}},
			{"sorted+skip+limit", nil, storage.FindOptions{Sort: query.MustParseSort(bson.D("name", 1)), Skip: 20, Limit: 50}},
			{"unsorted+limit", nil, storage.FindOptions{Limit: 33}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("parallel=%v/%s", parallel, tc.name), func(t *testing.T) {
				want, err := r.Find("db", "events", tc.filter, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				cur, err := r.FindCursor("db", "events", tc.filter, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cur.All()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("cursor returned %d docs, Find returned %d", len(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("doc %d differs:\n got  %v\n want %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestRouterAggregateCursorMatchesAggregate checks the streamed shard
// concatenation plus router-side merge pipeline against the slice path.
func TestRouterAggregateCursorMatchesAggregate(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		r := shardedFixture(t, Options{Parallel: parallel}, 400)
		pipelines := map[string][]*bson.Doc{
			"match+group+sort": {
				bson.D("$match", bson.D("g", bson.D("$lt", 6))),
				bson.D("$group", bson.D(bson.IDKey, "$g", "n", bson.D("$sum", 1))),
				bson.D("$sort", bson.D(bson.IDKey, 1)),
			},
			"project only": {
				bson.D("$project", bson.D("name", 1)),
			},
			"group+sort+limit": {
				bson.D("$group", bson.D(bson.IDKey, "$g", "total", bson.D("$sum", "$k"))),
				bson.D("$sort", bson.D("total", -1)),
				bson.D("$limit", 3),
			},
		}
		for name, stages := range pipelines {
			t.Run(fmt.Sprintf("parallel=%v/%s", parallel, name), func(t *testing.T) {
				want, err := r.Aggregate("db", "events", stages)
				if err != nil {
					t.Fatal(err)
				}
				it, err := r.AggregateCursor("db", "events", stages)
				if err != nil {
					t.Fatal(err)
				}
				var got []*bson.Doc
				for {
					d, ok := it.Next()
					if !ok {
						break
					}
					got = append(got, d)
				}
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
				it.Close()
				if len(got) != len(want) {
					t.Fatalf("cursor returned %d docs, Aggregate returned %d", len(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("doc %d differs:\n got  %v\n want %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestRouterCursorEarlyClose verifies closing a merge cursor mid-stream, a
// find's or an aggregation's, shuts down the parallel prefetch pumps without
// leaking or deadlocking.
func TestRouterCursorEarlyClose(t *testing.T) {
	r := shardedFixture(t, Options{Parallel: true}, 600)
	opens := map[string]func() (aggregate.Iterator, error){
		"find": func() (aggregate.Iterator, error) {
			return r.FindCursor("db", "events", nil, storage.FindOptions{BatchSize: 8})
		},
		"aggregate": func() (aggregate.Iterator, error) {
			return r.AggregateCursor("db", "events", []*bson.Doc{bson.D("$project", bson.D("name", 1))})
		},
	}
	for name, open := range opens {
		for i := 0; i < 10; i++ {
			cur, err := open()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := cur.Next(); !ok {
				t.Fatalf("%s: expected at least one document", name)
			}
			cur.Close()
			if _, ok := cur.Next(); ok {
				t.Fatalf("%s: Next succeeded after Close", name)
			}
		}
	}
}

// TestRouterShardErrorSurvivesMerge: one shard's half of a pipeline fails
// ($divide by zero on the one document with d: 0), and in both scatter
// modes the routed aggregation fails with that shard's name, through
// Aggregate and through the merge cursor's Err.
func TestRouterShardErrorSurvivesMerge(t *testing.T) {
	stages := []*bson.Doc{bson.D("$project", bson.D("q", bson.D("$divide", bson.A(1, bson.D("$ifNull", bson.A("$d", 1))))))}
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			r := shardedFixture(t, Options{Parallel: parallel}, 300)
			if _, err := r.Insert("db", "events", bson.D(bson.IDKey, 1000, "k", 1000, "d", 0)); err != nil {
				t.Fatal(err)
			}
			owner, _ := r.targetShards(r.Config().Metadata("db.events"), bson.D("k", 1000))
			prefix := fmt.Sprintf("mongos: shard %s: ", owner[0])
			check := func(via string, err error) {
				t.Helper()
				if err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), "$divide by zero") {
					t.Fatalf("%s: error %v, want %q… $divide by zero", via, err, prefix)
				}
			}
			_, err := r.Aggregate("db", "events", stages)
			check("Aggregate", err)
			it, err := r.AggregateCursor("db", "events", stages)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			check("AggregateCursor", it.Err())
			it.Close()
		})
	}
}

// TestStressParallelRouterFind runs concurrent Router.Find and FindCursor
// calls with Options.Parallel enabled while writers keep inserting — the
// scatter-gather race surface the -race run is meant to cover. One kind of
// read has a fixed answer while the writers run: a group's seeded documents,
// found through each shard's g_1 index.
func TestStressParallelRouterFind(t *testing.T) {
	const (
		seeded  = 300
		readers = 6
		writers = 2
		ops     = 100
	)
	r := shardedFixture(t, Options{Parallel: true}, seeded)
	if err := r.EnsureIndex("db", "events", bson.D("g", 1), false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				id := 10000 + w*ops + i
				doc := bson.D(bson.IDKey, id, "k", id, "g", id%11, "name", fmt.Sprintf("ev-%05d", id))
				if _, err := r.Insert("db", "events", doc); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				switch i % 3 {
				case 0:
					docs, err := r.Find("db", "events", bson.D("g", i%11), storage.FindOptions{})
					if err != nil {
						t.Errorf("find: %v", err)
						return
					}
					_ = docs
				case 1:
					cur, err := r.FindCursor("db", "events", nil, storage.FindOptions{BatchSize: 32, Limit: 64})
					if err != nil {
						t.Errorf("cursor: %v", err)
						return
					}
					if _, err := cur.All(); err != nil {
						t.Errorf("drain: %v", err)
						return
					}
				case 2:
					// The writers' ids start at 10000, so the seeded part of a
					// group does not change under them.
					grp := i % 11
					docs, err := r.Find("db", "events", bson.D("g", grp, "k", bson.D("$lt", seeded)), storage.FindOptions{})
					if err != nil {
						t.Errorf("group find: %v", err)
						return
					}
					if want := (seeded - grp + 10) / 11; len(docs) != want {
						t.Errorf("group %d: %d seeded documents, want %d", grp, len(docs), want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for _, name := range r.ShardNames() {
		total += r.Shard(name).Database("db").Collection("events").Count()
	}
	if total != seeded+writers*ops {
		t.Fatalf("cluster holds %d docs, want %d", total, seeded+writers*ops)
	}
	for _, name := range r.ShardNames() {
		_, plan, err := r.Shard(name).Database("db").Collection("events").FindWithPlan(bson.D("g", 3), storage.FindOptions{})
		if err != nil || plan.IndexUsed != "g_1" {
			t.Fatalf("shard %s plan = %v, %v; want IXSCAN g_1", name, plan, err)
		}
	}
}
