package replset

import (
	"fmt"
	"sync"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// TestSharedDocumentIsThePrimarys: an inserted document, and the post-image
// of an upsert that inserted, exist once in a replica set. Once replication
// has caught up, each secondary's FindID and the oplog entry's document are
// the very pointer the primary's FindID returns.
func TestSharedDocumentIsThePrimarys(t *testing.T) {
	rs := newTestSet(t, 3)
	rs.StartReplication()
	defer rs.Close()
	res := mustWrite(t, rs, storage.WriteConcern{W: 3},
		storage.InsertWriteOp(bson.D(bson.IDKey, 1, "a", bson.D("b", 1))),
		storage.InsertWriteOp(bson.D("no", "id")),
		storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D(bson.IDKey, 3), Update: bson.D("$set", bson.D("up", true)), Upsert: true}),
	)
	ids := []any{res.InsertedIDs[0], res.InsertedIDs[1], res.UpsertedIDs[2]}
	entries := rs.Oplog()
	if len(entries) != 1 || len(entries[0].Record.Ops) != len(ids) {
		t.Fatalf("the oplog holds %d entries, want one of %d ops", len(entries), len(ids))
	}
	primary := rs.Primary().Database("db").Collection("c")
	for i, id := range ids {
		stored := primary.FindID(id)
		if stored == nil {
			t.Fatalf("the primary holds no document %v", id)
		}
		if logged := entries[0].Record.Ops[i].Doc; logged != stored {
			t.Errorf("op %d: the oplog holds %s at %p, the primary %s at %p", i, logged, logged, stored, stored)
		}
		for _, m := range rs.Secondaries() {
			if got := m.Database("db").Collection("c").FindID(id); got != stored {
				t.Errorf("member %s holds document %v at %p, not the primary's %p", m.Name(), id, got, stored)
			}
		}
	}
}

// TestSharedDocumentsUnderNestedUpdates: nested $set, $inc, $unset and $push
// updates run on the primary while both appliers apply them and readers walk
// snapshots pinned, before the updates, on every member. Afterwards every
// member holds byte for byte what a stand-alone replay of the oplog builds,
// and every pinned snapshot still reads what it read when it was pinned: an
// update on one member never wrote a document another member, the oplog or
// an older version shares.
func TestSharedDocumentsUnderNestedUpdates(t *testing.T) {
	const docs, rounds = 16, 60
	rs := newTestSet(t, 3)
	rs.StartReplication()
	defer rs.Close()
	var seed []storage.WriteOp
	for i := 0; i < docs; i++ {
		seed = append(seed, storage.InsertWriteOp(bson.D(bson.IDKey, i,
			"a", bson.D("b", bson.D("c", i), "arr", bson.A(i), "x", "drop me"),
			"dim", bson.D("name", fmt.Sprint("d", i%4), "attrs", bson.D("k", i%4)))))
	}
	mustWrite(t, rs, storage.WriteConcern{W: 3}, seed...)

	type pinned struct {
		snap *storage.Snapshot
		want []string
	}
	render := func(snap *storage.Snapshot) []string {
		var out []string
		for _, d := range snap.Docs() {
			out = append(out, d.ToJSON())
		}
		return out
	}
	var pins []pinned
	for _, m := range rs.Members() {
		snap := m.Database("db").Collection("c").Snapshot()
		defer snap.Release()
		pins = append(pins, pinned{snap: snap, want: render(snap)})
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, p := range pins {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := render(p.snap)
				if fmt.Sprint(got) != fmt.Sprint(p.want) {
					t.Errorf("a pinned snapshot changed under the updates:\n got: %v\nwant: %v", got, p.want)
					return
				}
			}
		}()
	}
	updates := []*bson.Doc{
		bson.D("$set", bson.D("a.b.c", "set")),
		bson.D("$inc", bson.D("a.b.n", 1)),
		bson.D("$unset", bson.D("a.x", "")),
		bson.D("$push", bson.D("a.arr", "pushed")),
		bson.D("$set", bson.D("dim.attrs.k", "changed")),
	}
	for r := 0; r < rounds; r++ {
		filter := bson.D(bson.IDKey, r%docs)
		if r%7 == 0 {
			filter = bson.D("dim.name", fmt.Sprint("d", r%4)) // a multi-update
		}
		rs.BulkWrite("db", "c", []storage.WriteOp{storage.UpdateWriteOp(query.UpdateSpec{
			Query: filter, Update: updates[r%len(updates)], Multi: r%7 == 0,
		})}, storage.BulkOptions{Ordered: true})
	}
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	readers.Wait()
	for _, p := range pins {
		if got := render(p.snap); fmt.Sprint(got) != fmt.Sprint(p.want) {
			t.Fatalf("a pinned snapshot changed under the updates:\n got: %v\nwant: %v", got, p.want)
		}
	}

	replay := mongod.NewServer(mongod.Options{Name: "replay"})
	for _, e := range rs.Oplog() {
		replay.Database(e.Record.DB).BulkWrite(e.Record.Coll, e.Record.Ops, storage.BulkOptions{Ordered: e.Record.Ordered})
	}
	want := sortedDocs(replay)
	for _, m := range rs.Members() {
		got := sortedDocs(m)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("member %s diverges from a replay of the oplog:\n got: %v\nwant: %v", m.Name(), got, want)
		}
	}
}

// TestSharedRecordStoppedBatch: every member applies the one oplog record
// the primary logged, at the same time. Here the primary is volatile and
// both secondaries journal, as after docstored's journaled primary stepped
// down: a member's journal fills in a missing insert _id and upsert id
// before it logs, so the record must leave it nothing to fill in. An ordered
// batch stops at a duplicate _id before an insert without one, and an upsert
// matches instead of inserting; the set converges with no race report.
func TestSharedRecordStoppedBatch(t *testing.T) {
	members := []*mongod.Server{mongod.NewServer(mongod.Options{Name: "A"})}
	for _, name := range []string{"B", "C"} {
		m := mongod.NewServer(mongod.Options{Name: name})
		if _, err := m.EnableDurability(mongod.Durability{Dir: t.TempDir(), Sync: wal.SyncGroupCommit}); err != nil {
			t.Fatal(err)
		}
		defer m.CloseDurability()
		members = append(members, m)
	}
	rs, err := New("rs0", members...)
	if err != nil {
		t.Fatal(err)
	}
	rs.StartReplication()
	defer rs.Close()
	all := storage.WriteConcern{W: 3}
	mustWrite(t, rs, all, storage.InsertWriteOp(bson.D(bson.IDKey, 1, "n", 0)))
	for i := 0; i < 20; i++ {
		res := rs.BulkWrite("db", "c", []storage.WriteOp{
			storage.InsertWriteOp(bson.D(bson.IDKey, 1)),
			storage.InsertWriteOp(bson.D("never", i)),
		}, storage.BulkOptions{Ordered: true, WriteConcern: all})
		if res.DurabilityErr != nil || len(res.Errors) != 1 || res.Attempted != 1 {
			t.Fatalf("the stopped batch: %d attempted, errors %v, %v", res.Attempted, res.Errors, res.DurabilityErr)
		}
		mustWrite(t, rs, all, storage.UpdateWriteOp(query.UpdateSpec{
			Query: bson.D(bson.IDKey, 1), Update: bson.D("$inc", bson.D("n", 1)), Upsert: true,
		}))
	}
	want := sortedDocs(members[0])
	if len(want) != 1 {
		t.Fatalf("the primary holds %v, want the one document", want)
	}
	for _, m := range members[1:] {
		if got := sortedDocs(m); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("member %s holds %v, the primary %v", m.Name(), got, want)
		}
	}
}
