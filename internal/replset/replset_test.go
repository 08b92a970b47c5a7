package replset

import (
	"fmt"
	"path/filepath"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

func newTestSet(t *testing.T, members int) *ReplicaSet {
	t.Helper()
	servers := make([]*mongod.Server, members)
	for i := range servers {
		servers[i] = mongod.NewServer(mongod.Options{Name: string(rune('A' + i))})
	}
	rs, err := New("rs0", servers...)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// mustWrite sends one ordered batch and fails the test unless every op
// applied and the concern was met.
func mustWrite(t *testing.T, rs *ReplicaSet, wc storage.WriteConcern, ops ...storage.WriteOp) storage.BulkResult {
	t.Helper()
	res := rs.BulkWrite("db", "c", ops, storage.BulkOptions{Ordered: true, WriteConcern: wc})
	if res.DurabilityErr != nil {
		t.Fatalf("write not acknowledged: %v", res.DurabilityErr)
	}
	if err := res.FirstError(); err != nil {
		t.Fatalf("write failed: %v", err)
	}
	return res
}

func TestNewRequiresMembers(t *testing.T) {
	if _, err := New("rs0"); err == nil {
		t.Fatalf("empty member list should fail")
	}
	rs := newTestSet(t, 3)
	if rs.Name() != "rs0" {
		t.Fatalf("Name = %q", rs.Name())
	}
	if rs.Primary().Name() != "A" {
		t.Fatalf("primary = %q", rs.Primary().Name())
	}
	if len(rs.Secondaries()) != 2 || len(rs.Members()) != 3 {
		t.Fatalf("membership wrong")
	}
}

// TestWriteReplicationAndLag: before the appliers start, a write lands on
// the primary and in the oplog only, each secondary's lag is exactly the
// oplog's length, and Sync refuses to wait for progress no applier will
// make; once they run, Sync returns with every member at the tip, and
// updates and deletes replicate like inserts.
func TestWriteReplicationAndLag(t *testing.T) {
	rs := newTestSet(t, 3)
	for i := 0; i < 20; i++ {
		if _, err := rs.Insert("db", "c", bson.D(bson.IDKey, i, "v", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(rs.Oplog()); n != 20 {
		t.Fatalf("oplog length = %d", n)
	}
	lag := rs.ReplicationLag()
	if lag["B"] != 20 || lag["C"] != 20 {
		t.Fatalf("lag before the appliers start = %v", lag)
	}
	if got := rs.Primary().Database("db").Collection("c").Count(); got != 20 {
		t.Fatalf("primary has %d docs, want 20", got)
	}
	for _, m := range rs.Secondaries() {
		if got := m.Database("db").Collection("c").Count(); got != 0 {
			t.Fatalf("secondary %s has %d docs before its applier started", m.Name(), got)
		}
	}
	if err := rs.Sync(); err == nil {
		t.Fatal("Sync with no applier running returned nil")
	}

	rs.StartReplication()
	defer rs.Close()
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	lag = rs.ReplicationLag()
	if lag["B"] != 0 || lag["C"] != 0 {
		t.Fatalf("lag after sync = %v", lag)
	}
	for _, m := range rs.Members() {
		if got := m.Database("db").Collection("c").Count(); got != 20 {
			t.Fatalf("member %s has %d docs", m.Name(), got)
		}
	}
	if _, err := rs.Update("db", "c", query.UpdateSpec{
		Query: bson.D("v", bson.D("$lt", 5)), Update: bson.D("$set", bson.D("small", true)), Multi: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Delete("db", "c", bson.D("v", bson.D("$gte", 15)), true); err != nil {
		t.Fatal(err)
	}
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, m := range rs.Members() {
		coll := m.Database("db").Collection("c")
		if coll.Count() != 15 {
			t.Fatalf("member %s count = %d after delete", m.Name(), coll.Count())
		}
		small, _ := coll.CountDocs(bson.D("small", true))
		if small != 5 {
			t.Fatalf("member %s small count = %d", m.Name(), small)
		}
	}
}

// TestWALSourcedOplogConvergence restarts a durable replica set the way
// docstored does: the primary recovers from its own journal
// (EnableDurability), the oplog is reloaded from its WAL (LoadOplogFromWAL),
// the primary is marked as holding the reloaded tip (MarkApplied), the oplog
// WAL is reopened and attached (AttachWAL), and only then do the appliers
// start. The volatile secondaries must converge on the primary's state
// through their appliers, the primary must not be replayed onto a second
// time (its $inc would double), and the next write must take an oplog LSN
// above the reloaded tip and replicate.
func TestWALSourcedOplogConvergence(t *testing.T) {
	dir := t.TempDir()
	majorityJ := storage.WriteConcern{Majority: true, Journal: true}
	rs, primary, oplog := newDurableSet(t, dir)
	for i := 0; i < 12; i++ {
		mustWrite(t, rs, majorityJ, storage.InsertWriteOp(bson.D(bson.IDKey, i, "v", i)))
	}
	mustWrite(t, rs, majorityJ, storage.UpdateWriteOp(query.UpdateSpec{
		Query: bson.D("v", bson.D("$lt", 4)), Update: bson.D("$inc", bson.D("n", 1)), Multi: true,
	}))
	mustWrite(t, rs, majorityJ, storage.DeleteWriteOp(bson.D("v", bson.D("$gte", 10)), true))
	want := sortedDocs(primary)
	// Crash: only the primary's journal and the oplog WAL under dir survive.
	rs.Close()
	if err := oplog.Close(); err != nil {
		t.Fatal(err)
	}
	if err := primary.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	primary = mongod.NewServer(mongod.Options{Name: "A"})
	if _, err := primary.EnableDurability(mongod.Durability{Dir: dir, Sync: wal.SyncGroupCommit}); err != nil {
		t.Fatal(err)
	}
	defer primary.CloseDurability()
	rs, err := New("rs0", primary, mongod.NewServer(mongod.Options{Name: "B"}), mongod.NewServer(mongod.Options{Name: "C"}))
	if err != nil {
		t.Fatal(err)
	}
	oplogDir := filepath.Join(dir, "oplog")
	loaded, err := rs.LoadOplogFromWAL(oplogDir)
	if err != nil {
		t.Fatalf("LoadOplogFromWAL: %v", err)
	}
	if loaded != 14 {
		t.Fatalf("loaded %d oplog entries, want 14", loaded)
	}
	entries := rs.Oplog()
	tip := entries[len(entries)-1].Seq()
	rs.MarkApplied(primary.Name(), tip)
	oplog, err = wal.Open(wal.Options{Dir: oplogDir, Sync: wal.SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	defer oplog.Close()
	rs.AttachWAL(oplog)
	rs.StartReplication()
	defer rs.Close()

	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, m := range rs.Members() {
		got := sortedDocs(m)
		if len(got) != len(want) {
			t.Fatalf("member %s holds %d documents, want %d", m.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("member %s diverges from the crashed primary:\n got: %s\nwant: %s", m.Name(), got[i], want[i])
			}
		}
	}

	res := mustWrite(t, rs, majorityJ, storage.InsertWriteOp(bson.D(bson.IDKey, 100)))
	if res.LastLSN <= tip {
		t.Fatalf("write after restart took oplog LSN %d, not above the reloaded tip %d", res.LastLSN, tip)
	}
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	for name, n := range rs.ReplicationLag() {
		if n != 0 {
			t.Fatalf("member %s lag = %d after sync", name, n)
		}
	}
	for _, m := range rs.Members() {
		if m.Database("db").Collection("c").FindID(int64(100)) == nil {
			t.Fatalf("member %s is missing the write made after the restart", m.Name())
		}
	}
}

// TestUpsertReplicatesDeterministically pins the post-image logging rule:
// an upsert that inserts generates its _id on the primary, and the oplog
// must carry that document — not the update spec — or every member would
// generate its own _id and diverge.
func TestUpsertReplicatesDeterministically(t *testing.T) {
	rs := newTestSet(t, 2)
	res, err := rs.Update("db", "c", query.UpdateSpec{
		Query:  bson.D("missing", true),
		Update: bson.D("$set", bson.D("created", true)),
		Upsert: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UpsertedID == nil {
		t.Fatal("upsert did not insert")
	}
	entries := rs.Oplog()
	if len(entries) != 1 || len(entries[0].Record.Ops) != 1 {
		t.Fatalf("oplog = %d entries, want one single-op entry", len(entries))
	}
	if op := entries[0].Record.Ops[0]; op.Kind != storage.InsertOp || op.Doc.ID() != res.UpsertedID {
		t.Fatalf("oplog carries op kind %v, want an insert of the post-image with _id %v", op.Kind, res.UpsertedID)
	}
	rs.StartReplication()
	defer rs.Close()
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, m := range rs.Members() {
		doc := m.Database("db").Collection("c").FindID(res.UpsertedID)
		if doc == nil {
			t.Fatalf("member %s missing upserted _id %v (divergent generated ids)", m.Name(), res.UpsertedID)
		}
	}
}

// TestUpsertThenWriteInOneBatchReplicates: when a later op of the batch
// writes the document an upsert inserted — an $inc, a delete — the oplog may
// not log the document as the batch left it as the upsert's post-image, or
// the members apply the later op twice. Every member ends where the primary
// did.
func TestUpsertThenWriteInOneBatchReplicates(t *testing.T) {
	rs := newTestSet(t, 3)
	rs.StartReplication()
	defer rs.Close()
	inc := func(filter *bson.Doc, upsert bool) storage.WriteOp {
		return storage.UpdateWriteOp(query.UpdateSpec{Query: filter, Update: bson.D("$inc", bson.D("n", 1)), Upsert: upsert})
	}
	for _, batch := range [][]storage.WriteOp{
		{inc(bson.D(bson.IDKey, 1), true), inc(bson.D(bson.IDKey, 1), false)},
		{inc(bson.D("k", 2), true), inc(bson.D("k", 2), false), storage.InsertWriteOp(bson.D(bson.IDKey, 3))},
		{inc(bson.D("k", 4), true), storage.DeleteWriteOp(bson.D("k", 4), false), inc(bson.D("k", 4), true)},
	} {
		mustWrite(t, rs, storage.WriteConcern{W: 3}, batch...)
	}
	want := sortedDocs(rs.Primary())
	if len(want) != 4 {
		t.Fatalf("the primary holds %v, want four documents", want)
	}
	for _, m := range rs.Secondaries() {
		if got := sortedDocs(m); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("member %s holds %v, the primary %v", m.Name(), got, want)
		}
	}
}

// TestStepDownPromotesMostCaughtUpSecondary stalls B's applier by holding
// B's writes while majority writes reach A and C: the election must pick C,
// and once B is released, writes through the new primary reach every
// member.
func TestStepDownPromotesMostCaughtUpSecondary(t *testing.T) {
	rs := newTestSet(t, 3)
	rs.StartReplication()
	defer rs.Close()
	majority := storage.WriteConcern{Majority: true}
	for i := 0; i < 5; i++ {
		mustWrite(t, rs, majority, storage.InsertWriteOp(bson.D(bson.IDKey, i)))
	}
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	release := rs.Members()[1].HoldAllWrites()
	defer release() // before rs.Close, which waits for B's applier
	for i := 5; i < 10; i++ {
		mustWrite(t, rs, majority, storage.InsertWriteOp(bson.D(bson.IDKey, i)))
	}
	if next := rs.StepDown(); next.Name() != "C" {
		t.Fatalf("step down elected %s, want C, the only secondary holding every write", next.Name())
	}
	release()
	mustWrite(t, rs, majority, storage.InsertWriteOp(bson.D(bson.IDKey, 100)))
	if err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, m := range rs.Members() {
		if got := m.Database("db").Collection("c").Count(); got != 11 {
			t.Fatalf("member %s count after failover = %d", m.Name(), got)
		}
	}
	// Single-member sets keep their primary.
	single := newTestSet(t, 1)
	if single.StepDown().Name() != single.Primary().Name() {
		t.Fatalf("single member step down changed primary")
	}
}

// TestFindCursorPinsMemberSnapshot opens a cursor on a secondary while its
// applier runs: the writes acknowledged by both members between batches —
// so applied on the secondary mid-drain — do not leak into the open cursor,
// and a read after the drain sees them.
func TestFindCursorPinsMemberSnapshot(t *testing.T) {
	rs := newTestSet(t, 2)
	rs.StartReplication()
	defer rs.Close()
	both := storage.WriteConcern{W: 2}
	ops := make([]storage.WriteOp, 60)
	for i := range ops {
		ops[i] = storage.InsertWriteOp(bson.D(bson.IDKey, i, "v", i))
	}
	mustWrite(t, rs, both, ops...)

	secondary := rs.Secondaries()[0].Database("db")
	want, err := secondary.Find("c", nil, storage.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 60 {
		t.Fatalf("secondary holds %d docs after a w:2 write of 60", len(want))
	}
	cur, err := secondary.FindCursor("c", nil, storage.FindOptions{BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []*bson.Doc
	for {
		b := cur.NextBatch()
		if len(b) == 0 {
			break
		}
		got = append(got, b...)
		mustWrite(t, rs, both,
			storage.InsertWriteOp(bson.D(bson.IDKey, 1000+len(got))),
			storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D(), Update: bson.D("$set", bson.D("v", -7)), Multi: true}))
	}
	if len(got) != len(want) {
		t.Fatalf("cursor drained %d docs, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("doc %d differs from at-open state: %s", i, got[i])
		}
	}
	if n, err := secondary.Collection("c").CountDocs(bson.D("v", -7)); err != nil || n != 66 {
		t.Fatalf("secondary shows the mid-drain update on %d docs (%v), want all 66", n, err)
	}
}
