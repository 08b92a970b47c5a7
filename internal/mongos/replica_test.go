package mongos

import (
	"errors"
	"fmt"
	"sync"
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
	if len(rs.Oplog()) != 1 {
		t.Fatalf("oplog length = %d after routed insert, want 1", len(rs.Oplog()))
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

// TestReplicaShardReadsFollowStepDown registers a replica set once and steps
// its primary down: the router's reads must reach the new primary without
// re-registration, so a majority write routed after the election is found
// by a routed find.
func TestReplicaShardReadsFollowStepDown(t *testing.T) {
	rs := newReplicaShard(t, "A", "B", "C")
	r := NewRouter(sharding.NewConfigServer(), Options{})
	r.AddReplicaShard("rs0", rs)
	before := rs.Primary()

	next := rs.StepDown()
	if next == before {
		t.Fatalf("StepDown kept %s as primary", before.Name())
	}
	if got := r.Shard("rs0"); got != rs.Primary() {
		t.Fatalf("Shard(rs0) = %s, want the new primary %s", got.Name(), rs.Primary().Name())
	}
	if got := r.PrimaryShard(); got != rs.Primary() {
		t.Fatalf("PrimaryShard() = %s, want the new primary %s", got.Name(), rs.Primary().Name())
	}

	res := r.BulkWrite("db", "c", []storage.WriteOp{
		storage.InsertWriteOp(bson.D(bson.IDKey, "after-stepdown")),
	}, storage.BulkOptions{WriteConcern: storage.WriteConcern{Majority: true}})
	if err := res.FirstError(); err != nil {
		t.Fatalf("majority insert after step-down: %v", err)
	}
	docs, err := r.Find("db", "c", bson.D(bson.IDKey, "after-stepdown"), storage.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("routed find after step-down returned %d documents, want 1", len(docs))
	}
}

// TestRoutedFailoverMidWriteStream registers three replica-set shards once
// and fails one over in the middle of a routed write stream: three writers
// each send routed majority inserts, each followed by a routed find; a
// quarter of the way in shard s1's primary is killed, and two writes per
// writer later it is stepped down. Nothing is re-registered. Once the old
// primary rejoins and every set syncs, a routed find returns every
// acknowledged id and nothing outside the attempted set; the only write
// failures allowed are the ones the failover contract names.
func TestRoutedFailoverMidWriteStream(t *testing.T) {
	r := NewRouter(sharding.NewConfigServer(), Options{Parallel: true})
	sets := make(map[string]*replset.ReplicaSet)
	for _, name := range []string{"s0", "s1", "s2"} {
		sets[name] = newReplicaShard(t, name+"-a", name+"-b", name+"-c")
		r.AddReplicaShard(name, sets[name])
	}
	if _, err := r.EnableSharding("db", "c", bson.D("k", "hashed")); err != nil {
		t.Fatal(err)
	}

	const writers, attempts = 3, 40
	type outcome struct {
		id    string
		acked bool
	}
	// Unbuffered: the writers advance only as fast as the outcomes are read,
	// so the kill lands a quarter of the way in and the writes read between
	// the kill and the step-down meet a dead primary.
	results := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < attempts; j++ {
				id := fmt.Sprintf("w%d-%d", w, j)
				res := r.BulkWrite("db", "c", []storage.WriteOp{storage.InsertWriteOp(bson.D(bson.IDKey, id, "k", id))},
					storage.BulkOptions{WriteConcern: storage.WriteConcern{Majority: true}})
				err := res.DurabilityErr
				if err == nil {
					err = res.FirstError()
				}
				var wce *storage.WriteConcernError
				if err != nil && !errors.Is(err, replset.ErrPrimaryDown) && !errors.As(err, &wce) {
					t.Errorf("insert %s failed outside the failover contract: %v", id, err)
				}
				if _, ferr := r.Find("db", "c", bson.D("k", id), storage.FindOptions{}); ferr != nil {
					t.Errorf("routed find of %s: %v", id, ferr)
				}
				results <- outcome{id: id, acked: err == nil}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	rs := sets["s1"]
	old := rs.Primary().Name()
	acked := make(map[string]bool)
	attempted := make(map[string]bool)
	for o := range results {
		attempted[o.id] = true
		if o.acked {
			acked[o.id] = true
		}
		switch len(attempted) {
		case writers * attempts / 4:
			if err := rs.Kill(old); err != nil {
				t.Error(err)
			}
		case writers*attempts/4 + 2*writers:
			if next := rs.StepDown(); next.Name() == old {
				t.Error("step down re-elected the killed primary")
			}
		}
	}
	if len(acked) == 0 {
		t.Fatal("no write acked; the failover window swallowed everything")
	}
	t.Logf("%d of %d routed writes acknowledged", len(acked), len(attempted))

	if err := rs.Restart(old); err != nil {
		t.Fatal(err)
	}
	for _, set := range sets {
		if err := set.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := r.Find("db", "c", nil, storage.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool)
	for _, d := range docs {
		id, _ := d.GetOr(bson.IDKey, "").(string)
		if found[id] {
			t.Fatalf("routed find returned %s twice", id)
		}
		if !attempted[id] {
			t.Fatalf("routed find returned %s, which no writer attempted", id)
		}
		found[id] = true
	}
	for id := range acked {
		if !found[id] {
			t.Fatalf("acknowledged write %s missing from the routed find", id)
		}
	}
}

func TestReplicaShardShardedBulk(t *testing.T) {
	rsA := newReplicaShard(t, "A1", "A2", "A3")
	rsB := newReplicaShard(t, "B1", "B2", "B3")
	r := NewRouter(sharding.NewConfigServer(), Options{})
	r.AddReplicaShard("s0", rsA)
	r.AddReplicaShard("s1", rsB)
	if _, err := r.EnableSharding("db", "c", bson.D("k", 1)); err != nil {
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
	if len(rsA.Oplog()) == 0 && len(rsB.Oplog()) == 0 {
		t.Fatal("no replica shard logged the routed sub-batches")
	}
	total, err := r.Count("db", "c", nil)
	if err != nil || total != 40 {
		t.Fatalf("routed count = %d, %v", total, err)
	}
}
