package replset

import (
	"errors"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/storage"
)

// No test in this package may sleep to "give replication time": CI greps for
// wall-clock sleeps in replset tests and fails the build. Timeout expiry is driven
// through the injected wtimeout timer, and ordering through channels, the
// set's own blocking calls (Sync, quorum-blocked writes) and a member whose
// writes are held (mongod.Server.HoldAllWrites), which stalls its applier.

func insertOp(pairs ...any) storage.WriteOp {
	return storage.InsertWriteOp(bson.D(pairs...))
}

func wcErr(t *testing.T, err error) *storage.WriteConcernError {
	t.Helper()
	var wce *storage.WriteConcernError
	if !errors.As(err, &wce) {
		t.Fatalf("error %v (%T) is not a WriteConcernError", err, err)
	}
	return wce
}

func TestQuorumWaitWTimeout(t *testing.T) {
	rs := newTestSet(t, 3) // appliers off: nothing will ever ack beyond the primary

	timerCh := make(chan time.Time)
	var gotTimeout time.Duration
	rs.SetWTimeoutTimer(func(d time.Duration) (<-chan time.Time, func() bool) {
		gotTimeout = d
		return timerCh, func() bool { return false }
	})

	resCh := make(chan storage.BulkResult, 1)
	go func() {
		resCh <- rs.BulkWrite("db", "c", []storage.WriteOp{insertOp("_id", 1)}, storage.BulkOptions{
			Ordered:      true,
			WriteConcern: storage.WriteConcern{Majority: true, WTimeout: 50 * time.Millisecond},
		})
	}()

	// The unbuffered send cannot complete until the writer's select is
	// receiving, i.e. the waiter is registered and blocked on the deadline.
	timerCh <- time.Time{}
	res := <-resCh

	wce := wcErr(t, res.DurabilityErr)
	if wce.Reason != "wtimeout" || wce.W != "majority" || wce.Replicated != 1 {
		t.Fatalf("got %+v, want wtimeout on majority with 1 replica", wce)
	}
	if gotTimeout != 50*time.Millisecond {
		t.Fatalf("timer received %v, want the concern's 50ms", gotTimeout)
	}
	// The write itself applied on the primary and stays in the oplog.
	if rs.Primary().Database("db").Collection("c").FindID(int64(1)) == nil {
		t.Fatal("timed-out write missing from primary")
	}
	if n := len(rs.Oplog()); n != 1 {
		t.Fatalf("oplog length = %d, want 1", n)
	}
}

func TestQuorumWriteBlocksUntilApplied(t *testing.T) {
	rs := newTestSet(t, 3)
	rs.StartReplication()
	defer rs.Close()

	res := rs.BulkWrite("db", "c", []storage.WriteOp{insertOp("_id", 1), insertOp("_id", 2)}, storage.BulkOptions{
		Ordered:      true,
		WriteConcern: storage.WriteConcern{W: 3},
	})
	if res.DurabilityErr != nil {
		t.Fatalf("w:3 write failed: %v", res.DurabilityErr)
	}
	// w:3 returns only after every member applied — no syncing needed here.
	for _, m := range rs.Members() {
		if got := m.Database("db").Collection("c").Count(); got != 2 {
			t.Fatalf("member %s has %d docs at ack time, want 2", m.Name(), got)
		}
	}
}

func TestDefaultWriteConcernAppliesToScalarWrites(t *testing.T) {
	rs := newTestSet(t, 3)
	rs.SetDefaultWriteConcern(storage.WriteConcern{Majority: true})
	rs.StartReplication()
	defer rs.Close()

	if _, err := rs.Insert("db", "c", bson.D("_id", 1)); err != nil {
		t.Fatalf("insert at default majority: %v", err)
	}
	applied := 0
	for _, m := range rs.Members() {
		if m.Database("db").Collection("c").Count() == 1 {
			applied++
		}
	}
	if applied < 2 {
		t.Fatalf("majority-acked insert visible on %d member(s), want >= 2", applied)
	}
}

func TestKillMakesQuorumUnreachable(t *testing.T) {
	rs := newTestSet(t, 3)
	rs.StartReplication()
	defer rs.Close()

	if err := rs.Kill("B"); err != nil {
		t.Fatal(err)
	}
	if err := rs.Kill("C"); err != nil {
		t.Fatal(err)
	}
	res := rs.BulkWrite("db", "c", []storage.WriteOp{insertOp("_id", 1)}, storage.BulkOptions{
		WriteConcern: storage.WriteConcern{Majority: true},
	})
	wce := wcErr(t, res.DurabilityErr)
	if wce.Reason != "quorum unreachable" || wce.Replicated != 1 {
		t.Fatalf("got %+v, want immediate quorum-unreachable with 1 replica", wce)
	}

	// Reviving one member makes the majority reachable again: the entry
	// whose acknowledgement failed still replicates to it.
	if err := rs.Restart("B"); err != nil {
		t.Fatal(err)
	}
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, h := range rs.Health() {
		if h.Member == "B" && h.Applied < res.LastLSN {
			t.Fatalf("restarted B applied up to %d, want the unacknowledged entry %d", h.Applied, res.LastLSN)
		}
	}
	if rs.Members()[1].Database("db").Collection("c").FindID(int64(1)) == nil {
		t.Fatal("restarted B is missing the entry that missed its quorum")
	}
	if !rs.Alive("B") || rs.Alive("C") {
		t.Fatal("liveness flags wrong after kill/restart")
	}
}

func TestPrimaryDownFailsWrites(t *testing.T) {
	rs := newTestSet(t, 3)
	if err := rs.Kill(rs.Primary().Name()); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Insert("db", "c", bson.D("_id", 1)); !errors.Is(err, ErrPrimaryDown) {
		t.Fatalf("insert on killed primary: %v, want ErrPrimaryDown", err)
	}
	if err := rs.Restart(rs.Primary().Name()); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Insert("db", "c", bson.D("_id", 1)); err != nil {
		t.Fatalf("insert after restart: %v", err)
	}
}

func TestElectionRollsBackWaiter(t *testing.T) {
	rs := newTestSet(t, 3) // appliers off: the entry can never reach w:2

	registered := make(chan struct{})
	rs.SetWTimeoutTimer(func(time.Duration) (<-chan time.Time, func() bool) {
		close(registered) // the waiter is in the map before the timer is built
		return nil, func() bool { return false }
	})

	resCh := make(chan storage.BulkResult, 1)
	go func() {
		resCh <- rs.BulkWrite("db", "c", []storage.WriteOp{insertOp("_id", 1)}, storage.BulkOptions{
			WriteConcern: storage.WriteConcern{W: 2},
		})
	}()
	<-registered

	// Crash the primary and elect a successor. No secondary applied anything,
	// so the new primary's log tip is 0 and the waiter's entry is discarded.
	old := rs.Primary().Name()
	if err := rs.Kill(old); err != nil {
		t.Fatal(err)
	}
	next := rs.StepDown()
	if next.Name() == old {
		t.Fatalf("step down re-elected the killed primary %s", old)
	}

	res := <-resCh
	wce := wcErr(t, res.DurabilityErr)
	if wce.Reason != "rolled back" || wce.Replicated != 0 {
		t.Fatalf("got %+v, want rolled-back with 0 surviving replicas", wce)
	}
	if n := len(rs.Oplog()); n != 0 {
		t.Fatalf("oplog length = %d after rollback, want 0", n)
	}
}

func TestCloseFailsOutstandingWaiters(t *testing.T) {
	rs := newTestSet(t, 3)

	registered := make(chan struct{})
	rs.SetWTimeoutTimer(func(time.Duration) (<-chan time.Time, func() bool) {
		close(registered)
		return nil, func() bool { return false }
	})

	resCh := make(chan storage.BulkResult, 1)
	go func() {
		resCh <- rs.BulkWrite("db", "c", []storage.WriteOp{insertOp("_id", 1)}, storage.BulkOptions{
			WriteConcern: storage.WriteConcern{Majority: true},
		})
	}()
	<-registered
	rs.Close()

	res := <-resCh
	wce := wcErr(t, res.DurabilityErr)
	if wce.Reason != "replica set closed" {
		t.Fatalf("got %+v, want replica-set-closed", wce)
	}
}

// TestStepDownRollbackResync drives the rollback/resync cycle through the
// appliers. Both secondaries' writes are held, so their appliers stall on
// entry 6 while entries 6 and 7 reach the primary, which then crashes. The
// election truncates the log past the new primary's watermark: entry 7
// always goes, and entry 6 stays exactly when the elected member had
// already taken it up (an entry being applied counts). The deposed primary,
// whose state includes entry 7, is wiped and rebuilt from the surviving log
// when it rejoins.
func TestStepDownRollbackResync(t *testing.T) {
	rs := newTestSet(t, 3)
	rs.StartReplication()
	defer rs.Close()
	for i := 1; i <= 5; i++ {
		if _, err := rs.Insert("db", "c", bson.D("_id", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	var releases []func()
	for _, m := range rs.Secondaries() {
		releases = append(releases, m.HoldAllWrites())
	}
	releaseAll := func() {
		for _, release := range releases {
			release()
		}
	}
	defer releaseAll() // before rs.Close, which waits for the stalled appliers
	for i := 6; i <= 7; i++ {
		if _, err := rs.Insert("db", "c", bson.D("_id", i)); err != nil {
			t.Fatal(err)
		}
	}
	old := rs.Primary().Name()
	if err := rs.Kill(old); err != nil {
		t.Fatal(err)
	}
	next := rs.StepDown()
	if next.Name() == old {
		t.Fatal("step down kept the killed primary")
	}
	survivors := len(rs.Oplog())
	if survivors != 5 && survivors != 6 {
		t.Fatalf("oplog length = %d after election, want 5 or 6 (entry 7 reached no secondary)", survivors)
	}

	releaseAll()
	if err := rs.Restart(old); err != nil {
		t.Fatal(err)
	}
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, m := range rs.Members() {
		coll := m.Database("db").Collection("c")
		if coll.Count() != survivors {
			t.Fatalf("member %s has %d docs after resync, want the %d surviving entries", m.Name(), coll.Count(), survivors)
		}
		for i := 1; i <= 7; i++ {
			if kept := coll.FindID(int64(i)) != nil; kept != (i <= survivors) {
				t.Fatalf("doc %d kept=%v on member %s, want kept=%v", i, kept, m.Name(), i <= survivors)
			}
		}
	}
}
