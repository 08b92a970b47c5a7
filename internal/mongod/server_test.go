package mongod

import (
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
)

func TestServerDatabaseLifecycle(t *testing.T) {
	s := NewServer(Options{Name: "Shard1", RAMBytes: 8 << 30, DiskBytes: 256 << 30})
	if s.Name() != "Shard1" {
		t.Fatalf("Name = %q", s.Name())
	}
	db := s.Database("Dataset_1GB")
	if db.Name() != "Dataset_1GB" {
		t.Fatalf("db name = %q", db.Name())
	}
	if s.Database("Dataset_1GB") != db {
		t.Fatalf("Database should return the same instance")
	}
	s.Database("other")
	names := s.DatabaseNames()
	if len(names) != 2 || names[0] != "Dataset_1GB" {
		t.Fatalf("DatabaseNames = %v", names)
	}
	if !s.DropDatabase("other") || s.DropDatabase("other") {
		t.Fatalf("DropDatabase misbehaves")
	}
	// Defaulted name.
	if NewServer(Options{}).Name() != "mongod" {
		t.Fatalf("default name missing")
	}
	if s.Options().RAMBytes != 8<<30 {
		t.Fatalf("Options not preserved")
	}
}

func TestDatabaseCollectionsAndCRUD(t *testing.T) {
	s := NewServer(Options{})
	db := s.Database("test")
	if db.HasCollection("c") {
		t.Fatalf("collection should not exist yet")
	}
	if _, err := db.Insert("c", bson.D(bson.IDKey, 1, "v", 10)); err != nil {
		t.Fatal(err)
	}
	if !db.HasCollection("c") {
		t.Fatalf("collection should exist after insert")
	}
	if _, err := db.InsertMany("c", []*bson.Doc{bson.D(bson.IDKey, 2, "v", 20), bson.D(bson.IDKey, 3, "v", 30)}); err != nil {
		t.Fatal(err)
	}
	docs, err := db.Find("c", bson.D("v", bson.D("$gte", 20)), storage.FindOptions{})
	if err != nil || len(docs) != 2 {
		t.Fatalf("Find = %d docs, %v", len(docs), err)
	}
	if _, err := db.EnsureIndex("c", bson.D("v", 1), false); err != nil {
		t.Fatal(err)
	}
	_, plan, err := db.FindWithPlan("c", bson.D("v", 20), storage.FindOptions{})
	if err != nil || plan.IndexUsed != "v_1" {
		t.Fatalf("FindWithPlan: plan=%+v err=%v", plan, err)
	}
	res, err := db.Update("c", query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("$set", bson.D("v", 99))})
	if err != nil || res.Modified != 1 {
		t.Fatalf("Update: %+v %v", res, err)
	}
	n, err := db.Delete("c", bson.D(bson.IDKey, 3), false)
	if err != nil || n != 1 {
		t.Fatalf("Delete: %d %v", n, err)
	}
	if got := db.CollectionNames(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("CollectionNames = %v", got)
	}
	if len(db.Collections()) != 1 {
		t.Fatalf("Collections length wrong")
	}
	if !db.DropCollection("c") || db.DropCollection("c") {
		t.Fatalf("DropCollection misbehaves")
	}
}

func TestDatabaseAggregateWithOutAndLookup(t *testing.T) {
	s := NewServer(Options{})
	db := s.Database("Dataset_1GB")
	for i := 0; i < 20; i++ {
		if _, err := db.Insert("store_sales", bson.D(
			bson.IDKey, i,
			"ss_item_sk", i%4,
			"ss_quantity", i,
		)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Insert("item", bson.D(bson.IDKey, i, "i_item_sk", i, "i_item_id", string(rune('A'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	out, err := db.Aggregate("store_sales", []*bson.Doc{
		bson.D("$lookup", bson.D("from", "item", "localField", "ss_item_sk", "foreignField", "i_item_sk", "as", "item")),
		bson.D("$unwind", "$item"),
		bson.D("$group", bson.D(bson.IDKey, "$item.i_item_id", "qty", bson.D("$sum", "$ss_quantity"))),
		bson.D("$sort", bson.D(bson.IDKey, 1)),
		bson.D("$out", "agg_output"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("aggregate groups = %d", len(out))
	}
	// $out created the output collection with the same content.
	if db.Collection("agg_output").Count() != 4 {
		t.Fatalf("output collection count = %d", db.Collection("agg_output").Count())
	}
	// Aggregating a missing collection via $lookup errors.
	if _, err := db.Aggregate("store_sales", []*bson.Doc{
		bson.D("$lookup", bson.D("from", "nope", "localField", "a", "foreignField", "b", "as", "c")),
	}); err == nil {
		t.Fatalf("lookup against missing collection should fail")
	}
	// Invalid pipeline surfaces a parse error.
	if _, err := db.Aggregate("store_sales", []*bson.Doc{bson.D("$bogus", 1)}); err == nil {
		t.Fatalf("invalid pipeline should fail")
	}
}

func TestServerStatusAndWorkingSet(t *testing.T) {
	s := NewServer(Options{Name: "standalone", RAMBytes: 1 << 20})
	db := s.Database("d")
	for i := 0; i < 100; i++ {
		_, _ = db.Insert("c", bson.D(bson.IDKey, i, "payload", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
	}
	_, _ = db.EnsureIndex("c", bson.D("payload", 1), false)
	st := s.Status()
	if st.Collections != 1 || st.Documents != 100 || st.DataSizeBytes <= 0 || st.IndexSizeBytes <= 0 {
		t.Fatalf("status = %+v", st)
	}
	if st.WorkingSetBytes != st.DataSizeBytes+st.IndexSizeBytes {
		t.Fatalf("working set mismatch")
	}
	if st.RAMPressure <= 0 {
		t.Fatalf("RAM pressure should be positive with a tiny RAM setting")
	}
	if s.WorkingSetBytes() != st.WorkingSetBytes {
		t.Fatalf("WorkingSetBytes mismatch")
	}
}
