package replset

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/mongos"
	"docstore/internal/sharding"
	"docstore/internal/storage"
)

// TestFailoverEquivalence steps the primary down under concurrent unordered
// bulk writes and proves the surviving document set equals the acknowledged
// set at every layer: each member's storage, the new primary's mongod query
// path, and a mongos routing through the set. Writes acked at w:majority
// must all survive the election; writes the failover window rejected must
// not be required to survive — and nothing outside the attempted set may
// appear.
func TestFailoverEquivalence(t *testing.T) {
	rs := newTestSet(t, 3)
	rs.StartReplication()
	defer rs.Close()

	const writers, attempts = 3, 30
	type outcome struct {
		id    string
		acked bool
	}
	results := make(chan outcome, writers*attempts)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < attempts; j++ {
				id := fmt.Sprintf("w%d-%d", w, j)
				res := rs.BulkWrite("db", "c", []storage.WriteOp{
					storage.InsertWriteOp(bson.D("_id", id)),
				}, storage.BulkOptions{WriteConcern: storage.WriteConcern{Majority: true}})
				err := res.DurabilityErr
				if err == nil {
					err = res.FirstError()
				}
				if err != nil && !isFailoverRejection(err) {
					panic(fmt.Sprintf("write %s failed outside the failover contract: %v", id, err))
				}
				results <- outcome{id: id, acked: err == nil}
			}
		}(w)
	}

	// Fail the primary over mid-flight: wait for enough outcomes that writes
	// are demonstrably in progress, then kill and re-elect while the rest
	// race. The drained outcomes still count below.
	early := make([]outcome, 0, writers*attempts/4)
	for n := 0; n < writers*attempts/4; n++ {
		early = append(early, <-results)
	}
	old := rs.Primary().Name()
	if err := rs.Kill(old); err != nil {
		t.Fatal(err)
	}
	next := rs.StepDown()
	if next.Name() == old {
		t.Fatal("step down re-elected the killed primary")
	}
	wg.Wait()
	close(results)

	acked := make(map[string]bool)
	attempted := make(map[string]bool)
	record := func(o outcome) {
		attempted[o.id] = true
		if o.acked {
			acked[o.id] = true
		}
	}
	for _, o := range early {
		record(o)
	}
	for o := range results {
		record(o)
	}
	if len(acked) == 0 {
		t.Fatal("no write acked; the failover window swallowed everything")
	}

	// The deposed primary rejoins (wiped and rebuilt if it held rolled-back
	// entries) and every member converges on the surviving log.
	if err := rs.Restart(old); err != nil {
		t.Fatal(err)
	}
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Storage layer: every member holds the identical set; that set contains
	// every acked id and nothing outside the attempted set.
	survivors := memberIDs(t, rs, rs.Members()[0].Name())
	for _, m := range rs.Members() {
		got := memberIDs(t, rs, m.Name())
		if len(got) != len(survivors) {
			t.Fatalf("member %s holds %d docs, member %s holds %d: set diverged",
				m.Name(), len(got), rs.Members()[0].Name(), len(survivors))
		}
		for id := range survivors {
			if !got[id] {
				t.Fatalf("member %s is missing %s", m.Name(), id)
			}
		}
	}
	for id := range acked {
		if !survivors[id] {
			t.Fatalf("acked write %s lost in failover", id)
		}
	}
	for id := range survivors {
		if !attempted[id] {
			t.Fatalf("document %s appeared out of nowhere", id)
		}
	}

	// Mongod layer: the new primary's query path reports the same set.
	docs, err := rs.Primary().Database("db").Find("c", nil, storage.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(survivors) {
		t.Fatalf("the primary's find sees %d docs, storage holds %d", len(docs), len(survivors))
	}

	// Mongos layer: a router fronting the set (registered post-election, so
	// it routes to the new primary) reads the same set, and a routed
	// majority write still acknowledges and reaches every member.
	router := mongos.NewRouter(sharding.NewConfigServer(), mongos.Options{})
	router.AddReplicaShard("rs0", rs)
	n, err := router.Count("db", "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(survivors) {
		t.Fatalf("mongos counts %d docs, storage holds %d", n, len(survivors))
	}
	res := router.BulkWrite("db", "c", []storage.WriteOp{
		storage.InsertWriteOp(bson.D("_id", "post-failover")),
	}, storage.BulkOptions{WriteConcern: storage.WriteConcern{Majority: true}})
	if res.DurabilityErr != nil {
		t.Fatalf("routed majority write after failover: %v", res.DurabilityErr)
	}
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, m := range rs.Members() {
		if m.Database("db").Collection("c").FindID("post-failover") == nil {
			t.Fatalf("post-failover routed write missing on member %s", m.Name())
		}
	}
}

// isFailoverRejection reports whether a write error is one the failover
// contract allows: the primary was down, or the acknowledgement failed with
// a structured WriteConcernError (rolled back / quorum unreachable). Any
// other failure is a bug.
func isFailoverRejection(err error) bool {
	if errors.Is(err, ErrPrimaryDown) {
		return true
	}
	var wce *storage.WriteConcernError
	return errors.As(err, &wce)
}

// memberIDs collects the _id set of db.c on the named member.
func memberIDs(t *testing.T, rs *ReplicaSet, name string) map[string]bool {
	t.Helper()
	ids := make(map[string]bool)
	for _, m := range rs.Members() {
		if m.Name() != name {
			continue
		}
		docs, err := m.Database("db").Collection("c").Find(nil, storage.FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			id, _ := d.GetOr("_id", "").(string)
			ids[id] = true
		}
	}
	return ids
}
