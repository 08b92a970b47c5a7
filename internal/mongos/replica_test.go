package mongos

import (
	"errors"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/replset"
	"docstore/internal/sharding"
	"docstore/internal/storage"
)

func newReplicaShard(t *testing.T, names ...string) *replset.ReplicaSet {
	t.Helper()
	members := make([]*mongod.Server, len(names))
	for i, n := range names {
		members[i] = mongod.NewServer(mongod.Options{Name: n})
	}
	rs, err := replset.New("rs-"+names[0], members...)
	if err != nil {
		t.Fatal(err)
	}
	rs.StartReplication()
	t.Cleanup(rs.Close)
	return rs
}

func TestReplicaShardWriteConcernThreading(t *testing.T) {
	rs := newReplicaShard(t, "A", "B", "C")
	r := NewRouter(sharding.NewConfigServer(), Options{})
	r.AddReplicaShard("rs0", rs)

	// Scalar inserts route through the replica set: the write lands in its
	// oplog, not just on the primary.
	if _, err := r.Insert("db", "c", bson.D(bson.IDKey, 1)); err != nil {
		t.Fatal(err)
	}
	if rs.OplogLength() != 1 {
		t.Fatalf("oplog length = %d after routed insert, want 1", rs.OplogLength())
	}

	// A majority bulk through the router blocks until a quorum applied it.
	res := r.BulkWrite("db", "c", []storage.WriteOp{
		storage.InsertWriteOp(bson.D(bson.IDKey, 2)),
	}, storage.BulkOptions{WriteConcern: storage.WriteConcern{Majority: true}})
	if res.DurabilityErr != nil {
		t.Fatalf("majority bulk: %v", res.DurabilityErr)
	}
	applied := 0
	for _, m := range rs.Members() {
		if m.Database("db").Collection("c").FindID(int64(2)) != nil {
			applied++
		}
	}
	if applied < 2 {
		t.Fatalf("majority bulk visible on %d member(s), want >= 2", applied)
	}

	// Updates and deletes carry the concern as one-op batches.
	res = r.BulkWrite("db", "c", []storage.WriteOp{storage.UpdateWriteOp(
		query.UpdateSpec{Query: bson.D(bson.IDKey, 2), Update: bson.D("$set", bson.D("x", 1))})},
		storage.BulkOptions{Ordered: true, WriteConcern: storage.WriteConcern{W: 3}})
	if err := res.FirstError(); err != nil {
		t.Fatalf("w:3 update: %v", err)
	}
	for _, m := range rs.Members() {
		doc := m.Database("db").Collection("c").FindID(int64(2))
		if doc == nil || doc.GetOr("x", nil) == nil {
			t.Fatalf("w:3 update not applied on member %s", m.Name())
		}
	}

	// Quorum loss surfaces as the replica set's structured error.
	if err := rs.Kill("B"); err != nil {
		t.Fatal(err)
	}
	if err := rs.Kill("C"); err != nil {
		t.Fatal(err)
	}
	res = r.BulkWrite("db", "c", []storage.WriteOp{
		storage.InsertWriteOp(bson.D(bson.IDKey, 3)),
	}, storage.BulkOptions{WriteConcern: storage.WriteConcern{Majority: true}})
	var wce *storage.WriteConcernError
	if !errors.As(res.DurabilityErr, &wce) || wce.Reason != "quorum unreachable" {
		t.Fatalf("degraded routed bulk = %v, want quorum-unreachable WriteConcernError", res.DurabilityErr)
	}
}

func TestReplicaShardShardedBulk(t *testing.T) {
	rsA := newReplicaShard(t, "A1", "A2", "A3")
	rsB := newReplicaShard(t, "B1", "B2", "B3")
	r := NewRouter(sharding.NewConfigServer(), Options{})
	r.AddReplicaShard("s0", rsA)
	r.AddReplicaShard("s1", rsB)
	if _, err := r.EnableSharding("db", "c", bson.D("k", 1), 1<<20); err != nil {
		t.Fatal(err)
	}

	ops := make([]storage.WriteOp, 0, 40)
	for i := 0; i < 40; i++ {
		ops = append(ops, storage.InsertWriteOp(bson.D(bson.IDKey, i, "k", i)))
	}
	res := r.BulkWrite("db", "c", ops, storage.BulkOptions{
		WriteConcern: storage.WriteConcern{Majority: true},
	})
	if err := res.FirstError(); err != nil {
		t.Fatalf("sharded majority bulk: %v", err)
	}
	if res.Inserted != 40 {
		t.Fatalf("inserted %d, want 40", res.Inserted)
	}
	// Every sub-batch went through its replica set's oplog.
	if rsA.OplogLength() == 0 && rsB.OplogLength() == 0 {
		t.Fatal("no replica shard logged the routed sub-batches")
	}
	total, err := r.Count("db", "c", nil)
	if err != nil || total != 40 {
		t.Fatalf("routed count = %d, %v", total, err)
	}
}
