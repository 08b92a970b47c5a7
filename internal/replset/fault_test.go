package replset

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/changestream"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// Fault-injection suites: kill and restart members while concurrent bulk
// writes (and a change-stream tail) are in flight, then prove the two
// replication invariants — no acknowledged write is lost, and no entry is
// applied twice — by inspecting every member after catch-up. A counter
// document incremented by $inc detects double application: a replayed insert
// of a duplicate _id is silently rejected, but a replayed $inc would leave
// n == 2.

// counterBatch is one ordered [insert {_id, n: 0}, {$inc: {n: 1}}] pair.
func counterBatch(id string) []storage.WriteOp {
	return []storage.WriteOp{
		storage.InsertWriteOp(bson.D("_id", id, "n", 0)),
		storage.UpdateWriteOp(query.UpdateSpec{
			Query:  bson.D("_id", id),
			Update: bson.D("$inc", bson.D("n", 1)),
		}),
	}
}

// toggleMember flips one member down and up as fast as the scheduler allows
// until stop is closed, leaving the member alive.
func toggleMember(rs *ReplicaSet, name string, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			_ = rs.Restart(name)
			return
		default:
		}
		_ = rs.Kill(name)
		runtime.Gosched()
		_ = rs.Restart(name)
		runtime.Gosched()
	}
}

// assertCountersApplied checks one member holds exactly ids, each with n == 1.
func assertCountersApplied(t *testing.T, m *mongod.Server, ids []string) {
	t.Helper()
	coll := m.Database("db").Collection("c")
	if got := coll.Count(); got != len(ids) {
		t.Fatalf("member %s has %d docs, want %d", m.Name(), got, len(ids))
	}
	for _, id := range ids {
		doc := coll.FindID(id)
		if doc == nil {
			t.Fatalf("acked write %s lost on member %s", id, m.Name())
		}
		if n, _ := bson.AsInt(doc.GetOr("n", nil)); n != 1 {
			t.Fatalf("write %s applied %d times on member %s, want exactly once", id, n, m.Name())
		}
	}
}

func TestFaultInjectionKillRestartMidBulkWrite(t *testing.T) {
	rs := newTestSet(t, 3)
	rs.StartReplication()
	defer rs.Close()

	const writers, batches = 4, 25
	stop := make(chan struct{})
	var killer sync.WaitGroup
	killer.Add(1)
	go func() {
		defer killer.Done()
		toggleMember(rs, "B", stop) // A (primary) and C stay up: majority always reachable
	}()

	var wg sync.WaitGroup
	errs := make(chan error, writers*batches)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < batches; j++ {
				id := fmt.Sprintf("w%d-%d", w, j)
				res := rs.BulkWrite("db", "c", counterBatch(id), storage.BulkOptions{
					Ordered:      true,
					WriteConcern: storage.WriteConcern{Majority: true},
				})
				if res.DurabilityErr != nil {
					errs <- fmt.Errorf("batch %s: %w", id, res.DurabilityErr)
					return
				}
				if err := res.FirstError(); err != nil {
					errs <- fmt.Errorf("batch %s op error: %w", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	killer.Wait()
	close(errs)
	for err := range errs {
		// A and C form a live majority throughout, so every write must ack.
		t.Fatal(err)
	}

	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, writers*batches)
	for w := 0; w < writers; w++ {
		for j := 0; j < batches; j++ {
			ids = append(ids, fmt.Sprintf("w%d-%d", w, j))
		}
	}
	for _, m := range rs.Members() {
		assertCountersApplied(t, m, ids)
	}
}

// TestFaultInjectionMidChangeStreamTail runs the same kill/restart storm
// while a change stream tails the primary: after catch-up the stream must
// have delivered exactly one insert and one update event per acknowledged
// batch — a lost event would break downstream consumers the same way a lost
// write would, and a duplicate is the stream-side face of a double apply.
func TestFaultInjectionMidChangeStreamTail(t *testing.T) {
	primary := mongod.NewServer(mongod.Options{Name: "A"})
	if _, err := primary.EnableDurability(mongod.Durability{Dir: t.TempDir(), Sync: wal.SyncGroupCommit}); err != nil {
		t.Fatal(err)
	}
	defer primary.CloseDurability()
	members := []*mongod.Server{
		primary,
		mongod.NewServer(mongod.Options{Name: "B"}),
		mongod.NewServer(mongod.Options{Name: "C"}),
	}
	rs, err := New("rs0", members...)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := primary.Watch("db", "c", mongod.WatchOptions{BufferSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	rs.StartReplication()
	defer rs.Close()

	const writers, batches = 2, 25
	stop := make(chan struct{})
	var killer sync.WaitGroup
	killer.Add(1)
	go func() {
		defer killer.Done()
		toggleMember(rs, "B", stop)
	}()

	var wg sync.WaitGroup
	errs := make(chan error, writers*batches)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < batches; j++ {
				id := fmt.Sprintf("w%d-%d", w, j)
				res := rs.BulkWrite("db", "c", counterBatch(id), storage.BulkOptions{
					Ordered: true,
					// j: true makes the primary's fsync — which publishes the
					// events — part of the acknowledgement, so after the last
					// ack every event is either delivered or buffered.
					WriteConcern: storage.WriteConcern{Majority: true, Journal: true},
				})
				if res.DurabilityErr != nil {
					errs <- fmt.Errorf("batch %s: %w", id, res.DurabilityErr)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	killer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}

	inserts := make(map[string]int)
	updates := make(map[string]int)
	for seen := 0; seen < writers*batches*2; seen++ {
		ev, err := sub.Next(5 * time.Second)
		if err != nil {
			t.Fatalf("stream died after %d events: %v", seen, err)
		}
		if ev == nil {
			t.Fatalf("stream dried up after %d events, want %d", seen, writers*batches*2)
		}
		id, _ := ev.DocumentKey.GetOr("_id", "").(string)
		switch ev.OpType {
		case changestream.OpInsert:
			inserts[id]++
		case changestream.OpUpdate:
			updates[id]++
		default:
			t.Fatalf("unexpected %s event for %q", ev.OpType, id)
		}
	}
	for w := 0; w < writers; w++ {
		for j := 0; j < batches; j++ {
			id := fmt.Sprintf("w%d-%d", w, j)
			if inserts[id] != 1 || updates[id] != 1 {
				t.Fatalf("batch %s delivered %d insert / %d update events, want exactly 1/1", id, inserts[id], updates[id])
			}
		}
	}
	for _, m := range rs.Members() {
		if got := m.Database("db").Collection("c").Count(); got != writers*batches {
			t.Fatalf("member %s has %d docs, want %d", m.Name(), got, writers*batches)
		}
	}
}
