package driver

import (
	"testing"

	"docstore/internal/bson"
	"docstore/internal/cluster"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/storage"
)

// stores builds one stand-alone and one sharded deployment for parity tests.
func stores(t *testing.T) []Store {
	t.Helper()
	standalone := NewStandalone(mongod.NewServer(mongod.Options{Name: "solo"}).Database("db"))
	c := cluster.MustBuild(cluster.Config{Shards: 3})
	if _, err := c.ShardCollection("db", "events", bson.D("k", "hashed")); err != nil {
		t.Fatal(err)
	}
	sharded := NewSharded(c.Router(), "db")
	return []Store{standalone, sharded}
}

func TestStoreParity(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			var docs []*bson.Doc
			for i := 0; i < 200; i++ {
				docs = append(docs, bson.D(bson.IDKey, i, "k", i, "cat", i%4, "v", i))
			}
			if _, err := s.InsertMany("events", docs); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Insert("events", bson.D(bson.IDKey, 1000, "k", 1000, "cat", 0, "v", 0)); err != nil {
				t.Fatal(err)
			}
			n, err := s.Count("events", nil)
			if err != nil || n != 201 {
				t.Fatalf("Count = %d, %v", n, err)
			}
			found, err := s.Find("events", bson.D("cat", 2), storage.FindOptions{})
			if err != nil || len(found) != 50 {
				t.Fatalf("Find = %d docs, %v", len(found), err)
			}
			if err := s.EnsureIndex("events", bson.D("cat", 1), false); err != nil {
				t.Fatal(err)
			}
			res, err := s.Update("events", query.UpdateSpec{
				Query:  bson.D("cat", 3),
				Update: bson.D("$set", bson.D("flag", true)),
				Multi:  true,
			})
			if err != nil || res.Modified != 50 {
				t.Fatalf("Update = %+v, %v", res, err)
			}
			agg, err := s.Aggregate("events", []*bson.Doc{
				bson.D("$match", bson.D("cat", bson.D("$in", bson.A(0, 1)))),
				bson.D("$group", bson.D(bson.IDKey, "$cat", "n", bson.D("$sum", 1))),
				bson.D("$sort", bson.D(bson.IDKey, 1)),
			})
			if err != nil || len(agg) != 2 {
				t.Fatalf("Aggregate = %v, %v", agg, err)
			}
			if v, _ := agg[0].Get("n"); v != int64(51) {
				t.Fatalf("group count = %v", v)
			}
			if s.DataSizeBytes("events") <= 0 {
				t.Fatalf("DataSizeBytes should be positive")
			}
			if !s.DropCollection("events") {
				t.Fatalf("DropCollection should report true")
			}
			if n, _ := s.Count("events", nil); n != 0 {
				t.Fatalf("count after drop = %d", n)
			}
			if s.Name() == "" {
				t.Fatalf("Name should not be empty")
			}
			// Insert and InsertMany give a document that lacks an _id one in
			// the caller's document itself, the id they return, leading its
			// fields; a document that has one keeps it.
			docs = []*bson.Doc{bson.D("k", 1, "v", "a"), bson.D(bson.IDKey, "mine", "k", 2), bson.D("k", 3)}
			ids, err := s.InsertMany("events", docs)
			if err != nil {
				t.Fatal(err)
			}
			one := bson.D("k", 4)
			id, err := s.Insert("events", one)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range append(docs, one) {
				want := id
				if i < len(ids) {
					want = ids[i]
				}
				if keys := d.Keys(); len(keys) == 0 || keys[0] != bson.IDKey {
					t.Fatalf("document %d = %s, want _id first", i, d)
				}
				if got, _ := d.Get(bson.IDKey); bson.Compare(got, want) != 0 {
					t.Fatalf("document %d has _id %v, the call returned %v", i, got, want)
				}
				stored, err := s.Find("events", bson.D(bson.IDKey, want), storage.FindOptions{})
				if err != nil || len(stored) != 1 {
					t.Fatalf("document %d: %d stored under %v, %v", i, len(stored), want, err)
				}
			}
			if got, _ := docs[1].Get(bson.IDKey); got != "mine" {
				t.Fatalf("a given _id became %v", got)
			}
		})
	}
}
