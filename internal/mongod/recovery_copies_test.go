package mongod

import (
	"math/rand"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// TestRecoveryCopiesNoPage recovers a log of single-document inserts followed
// by $set updates of documents in earlier pages, more than 512 records in
// all, and requires that recovery copied no page and no index-tree node or
// item array: one collection's run of batches is rebuilt in the collection's
// own pages and nodes and published once, so no version published mid-run
// is there to copy from. The recovered collection holds what the server that
// wrote the log held.
func TestRecoveryCopiesNoPage(t *testing.T) {
	const inserts, updates = 700, 300
	rng := rand.New(rand.NewSource(53))
	dir := t.TempDir()
	live, _ := durableServer(t, dir, wal.SyncNone)
	db := live.Database("db")
	for i := 0; i < inserts; i++ {
		if _, err := db.Insert("c", bson.D(bson.IDKey, i, "v", 0, "pad", randomPad(rng))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < updates; i++ {
		res := db.BulkWrite("c", []storage.WriteOp{storage.UpdateWriteOp(query.UpdateSpec{
			Query: bson.D(bson.IDKey, rng.Intn(inserts)), Update: bson.D("$inc", bson.D("v", 1)),
		})}, storage.BulkOptions{Ordered: true})
		if err := res.FirstError(); err != nil {
			t.Fatal(err)
		}
	}
	want := serverState(t, live)
	if err := live.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	recovered, stats := durableServer(t, dir, wal.SyncNone)
	defer recovered.CloseDurability()
	if stats.RecordsReplayed != inserts+updates {
		t.Fatalf("replayed %d records, want %d", stats.RecordsReplayed, inserts+updates)
	}
	diffStates(t, "recovered vs the server that wrote the log", serverState(t, recovered), want)
	es := recovered.Database("db").Collection("c").EngineStats()
	if es.PagesCopied != 0 || es.COWBytesCopied != 0 {
		t.Errorf("recovery copied %d pages (%d B)", es.PagesCopied, es.COWBytesCopied)
	}
	if es.TreeNodesCopied != 0 || es.TreeBytesCopied != 0 {
		t.Errorf("recovery copied %d index-tree nodes or item arrays (%d B)", es.TreeNodesCopied, es.TreeBytesCopied)
	}
}
