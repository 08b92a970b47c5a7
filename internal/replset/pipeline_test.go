package replset

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// newDurableSet builds the deployment docstored -data-dir -replicas 3 runs:
// a primary journaling to dir/wal, two volatile secondaries, the oplog in
// its own WAL under dir/oplog, background appliers started.
func newDurableSet(t *testing.T, dir string) (*ReplicaSet, *mongod.Server, *wal.WAL) {
	t.Helper()
	primary := mongod.NewServer(mongod.Options{Name: "A"})
	if _, err := primary.EnableDurability(mongod.Durability{Dir: dir, Sync: wal.SyncGroupCommit}); err != nil {
		t.Fatal(err)
	}
	rs, err := New("rs0", primary,
		mongod.NewServer(mongod.Options{Name: "B"}),
		mongod.NewServer(mongod.Options{Name: "C"}))
	if err != nil {
		t.Fatal(err)
	}
	oplog, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "oplog"), Sync: wal.SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	rs.AttachWAL(oplog)
	rs.StartReplication()
	return rs, primary, oplog
}

// opIDs names the documents a batch's ops address, in op order: the inserted
// _id, or the _id an update's query pins. The oplog rewrites an upsert as an
// insert of its post-image, so the ids — not the op kinds — are what the two
// logs share.
func opIDs(ops []storage.WriteOp) string {
	s := ""
	for _, op := range ops {
		var id any
		switch op.Kind {
		case storage.InsertOp:
			id = op.Doc.ID()
		case storage.UpdateOp:
			id, _ = op.Update.Query.Get(bson.IDKey)
		}
		s += fmt.Sprint(id) + ","
	}
	return s
}

// sortedDocs renders a member's collection sorted by _id rendering.
func sortedDocs(m *mongod.Server) []string {
	var out []string
	m.Database("db").Collection("c").Scan(func(d *bson.Doc) bool {
		out = append(out, d.ToJSON())
		return true
	})
	sort.Strings(out)
	return out
}

// TestPipelinedCommitOrderingAndSharing drives concurrent majority+j writes
// through a durable set and checks what taking the durability waits out of
// the set's lock must preserve and what it must newly allow: the oplog is in
// the primary journal's order; the primary, both secondaries and a server
// recovered from the primary's directory hold the same documents; each log
// acknowledged more records than it issued fsyncs (writers shared a group
// commit, which they cannot while the fsync runs under the set's lock); and
// a change stream opened before the writes saw every logged op exactly once,
// i.e. every journal LSN was notified.
func TestPipelinedCommitOrderingAndSharing(t *testing.T) {
	dir := t.TempDir()
	rs, primary, oplog := newDurableSet(t, dir)
	sub, err := primary.Watch("db", "c", mongod.WatchOptions{BufferSize: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const writers, rounds = 4, 32
	wc := storage.WriteConcern{Majority: true, Journal: true}
	wantEvents := make(map[string]int) // document id -> logged ops naming it
	var wantMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := func(j int) string { return fmt.Sprintf("w%d-%d", w, j) }
			for j := 0; j < rounds; j++ {
				var ops []storage.WriteOp
				wantOpErrors := 0
				switch j % 4 {
				case 0:
					ops = []storage.WriteOp{storage.InsertWriteOp(bson.D("_id", id(j), "n", j))}
				case 1: // insert plus a $set of the previous round's document
					ops = []storage.WriteOp{
						storage.InsertWriteOp(bson.D("_id", id(j), "n", j)),
						storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("_id", id(j-1)), Update: bson.D("$set", bson.D("set", j))}),
					}
				case 2: // ordered: the duplicate _id fails and the third op never runs
					ops = []storage.WriteOp{
						storage.InsertWriteOp(bson.D("_id", id(j), "n", j)),
						storage.InsertWriteOp(bson.D("_id", id(j-2), "n", -1)),
						storage.InsertWriteOp(bson.D("_id", id(j)+"-never")),
					}
					wantOpErrors = 1
				case 3:
					ops = []storage.WriteOp{storage.UpdateWriteOp(query.UpdateSpec{
						Query: bson.D("_id", id(j)), Update: bson.D("$set", bson.D("up", j)), Upsert: true,
					})}
				}
				wantMu.Lock()
				for _, op := range ops {
					wantEvents[opIDs([]storage.WriteOp{op})]++
				}
				wantMu.Unlock()
				res := rs.BulkWrite("db", "c", ops, storage.BulkOptions{Ordered: true, WriteConcern: wc})
				if res.DurabilityErr != nil {
					t.Errorf("write %s not acknowledged: %v", id(j), res.DurabilityErr)
					return
				}
				if len(res.Errors) != wantOpErrors {
					t.Errorf("write %s: %d op errors, want %d: %v", id(j), len(res.Errors), wantOpErrors, res.Errors)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if _, err := rs.Sync(); err != nil {
		t.Fatal(err)
	}

	// Sharing: with four writers in flight, some fsync covered more than one
	// record in each log.
	_, _, journalStats, _ := primary.WALHealth()
	for name, st := range map[string]wal.Stats{"primary journal": journalStats, "oplog": oplog.Stats()} {
		if st.Appends != writers*rounds {
			t.Fatalf("%s: %d appends, want %d", name, st.Appends, writers*rounds)
		}
		t.Logf("%s: %d appends, %d fsyncs", name, st.Appends, st.Syncs)
		if st.Syncs >= st.Appends {
			t.Fatalf("%s: %d fsyncs for %d appends — no group commit was shared", name, st.Syncs, st.Appends)
		}
	}

	// Every journal LSN notified: the stream holds each logged op once.
	total := 0
	for _, n := range wantEvents {
		total += n
	}
	gotEvents := make(map[string]int)
	seenTokens := make(map[string]bool)
	for seen := 0; seen < total; seen++ {
		ev, err := sub.Next(5 * time.Second)
		if err != nil || ev == nil {
			t.Fatalf("change stream stopped after %d of %d events: %v", seen, total, err)
		}
		if tok := ev.Token.String(); seenTokens[tok] {
			t.Fatalf("event %s delivered twice", tok)
		} else {
			seenTokens[tok] = true
		}
		id, _ := ev.DocumentKey.Get(bson.IDKey)
		gotEvents[fmt.Sprint(id)+","]++
	}
	for id, want := range wantEvents {
		if gotEvents[id] != want {
			t.Fatalf("document %s: %d events, want %d", id, gotEvents[id], want)
		}
	}

	// Ordering: the oplog lists the batches in the order the primary
	// journaled them.
	entries := rs.Oplog()
	rs.Close()
	if err := oplog.Close(); err != nil {
		t.Fatal(err)
	}
	if err := primary.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	journal, err := wal.ReadAll(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(journal) != len(entries) {
		t.Fatalf("journal holds %d records, oplog %d", len(journal), len(entries))
	}
	for i, rec := range journal {
		if got, want := opIDs(entries[i].Record.Ops), opIDs(rec.Ops); got != want {
			t.Fatalf("oplog entry %d is batch %q, the journal's record %d is %q", i, got, i, want)
		}
	}

	// Equivalence: recovery of the primary's directory, the primary and the
	// secondaries agree.
	recovered := mongod.NewServer(mongod.Options{Name: "recovered"})
	if _, err := recovered.EnableDurability(mongod.Durability{Dir: dir, Sync: wal.SyncGroupCommit}); err != nil {
		t.Fatal(err)
	}
	defer recovered.CloseDurability()
	want := sortedDocs(primary)
	if len(want) != writers*rounds {
		t.Fatalf("primary holds %d documents, want %d", len(want), writers*rounds)
	}
	for _, m := range append(rs.Secondaries(), recovered) {
		got := sortedDocs(m)
		if len(got) != len(want) {
			t.Fatalf("%s holds %d documents, primary %d", m.Name(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s differs from the primary:\n got: %s\nwant: %s", m.Name(), got[i], want[i])
			}
		}
	}
}

// TestJournalFailureDoesNotReplicate closes the primary's WAL underneath it:
// the journal append fails, the primary applies nothing, and so the batch
// must not enter the oplog or reach a secondary — the error is the result.
func TestJournalFailureDoesNotReplicate(t *testing.T) {
	rs, primary, oplog := newDurableSet(t, t.TempDir())
	defer oplog.Close()
	defer rs.Close()
	wc := storage.WriteConcern{Majority: true, Journal: true}
	insert := func(id string) storage.BulkResult {
		return rs.BulkWrite("db", "c", []storage.WriteOp{storage.InsertWriteOp(bson.D("_id", id))},
			storage.BulkOptions{Ordered: true, WriteConcern: wc})
	}
	if res := insert("before"); res.FirstError() != nil {
		t.Fatal(res.FirstError())
	}
	if err := primary.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	oplogLen, oplogAppends := rs.OplogLength(), oplog.Stats().Appends

	res := insert("after")
	if res.DurabilityErr == nil || res.Attempted != 0 {
		t.Fatalf("write through a closed journal: attempted %d, err %v; want nothing attempted and the journal's error", res.Attempted, res.DurabilityErr)
	}
	if got := rs.OplogLength(); got != oplogLen {
		t.Fatalf("oplog grew from %d to %d entries for a batch the primary never applied", oplogLen, got)
	}
	if got := oplog.Stats().Appends; got != oplogAppends {
		t.Fatalf("oplog WAL took %d appends, want %d", got, oplogAppends)
	}
	if _, err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, m := range rs.Members() {
		coll := m.Database("db").Collection("c")
		if coll.Count() != 1 || coll.FindID("after") != nil {
			t.Fatalf("member %s holds %d documents (after: %v), want only the acknowledged one", m.Name(), coll.Count(), coll.FindID("after"))
		}
	}
}

// TestPipelinedCommitOplogFailureNotifiesJournal closes the oplog's WAL
// underneath the set: the primary has journaled and applied the batch by the
// time the oplog append fails, so the write's error return must still resolve
// the primary's commit — a change stream sees the write, and the frontier is
// not left stalled on its LSN for the writes that follow.
func TestPipelinedCommitOplogFailureNotifiesJournal(t *testing.T) {
	rs, primary, oplog := newDurableSet(t, t.TempDir())
	defer primary.CloseDurability()
	defer rs.Close()
	sub, err := primary.Watch("db", "c", mongod.WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := oplog.Close(); err != nil {
		t.Fatal(err)
	}
	res := rs.BulkWrite("db", "c", []storage.WriteOp{storage.InsertWriteOp(bson.D("_id", "orphan"))},
		storage.BulkOptions{Ordered: true, WriteConcern: storage.WriteConcern{Majority: true, Journal: true}})
	if res.DurabilityErr == nil || res.Inserted != 1 {
		t.Fatalf("write with a closed oplog: inserted %d, err %v; want it applied on the primary and unacknowledged", res.Inserted, res.DurabilityErr)
	}
	// A stand-alone write behind it: its event arrives only if the orphan's
	// LSN was notified first.
	if _, err := primary.Database("db").Insert("c", bson.D("_id", "next")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"orphan", "next"} {
		ev, err := sub.Next(5 * time.Second)
		if err != nil || ev == nil {
			t.Fatalf("change stream stalled before %q: %v", want, err)
		}
		if id, _ := ev.DocumentKey.Get(bson.IDKey); id != want {
			t.Fatalf("change stream delivered %v, want %q", id, want)
		}
	}
}

// TestTooDeepDocumentNeverReachesTheOplog hands the set a batch with a
// document no decoder would read back out of a log record: the primary
// refuses the batch whole, so the oplog, which the secondaries and recovery
// read, must not see it either — and a healthy write behind it replicates.
func TestTooDeepDocumentNeverReachesTheOplog(t *testing.T) {
	rs, primary, oplog := newDurableSet(t, t.TempDir())
	defer oplog.Close()
	defer primary.CloseDurability()
	defer rs.Close()
	deep := bson.D("leaf", 1)
	for i := 1; i < bson.MaxDepth; i++ {
		deep = bson.D("a", deep)
	}
	oplogLen, oplogAppends := rs.OplogLength(), oplog.Stats().Appends
	wc := storage.WriteConcern{Majority: true, Journal: true}
	res := rs.BulkWrite("db", "c", []storage.WriteOp{
		storage.InsertWriteOp(bson.D("_id", "beside")),
		storage.InsertWriteOp(bson.D("_id", "deep", "v", deep)),
	}, storage.BulkOptions{WriteConcern: wc})
	if !errors.Is(res.FirstError(), storage.ErrDocumentTooDeep) || res.Attempted != 0 || len(res.Errors) != 1 || res.Errors[0].Index != 1 {
		t.Fatalf("batch with a too-deep document: attempted %d, errors %v", res.Attempted, res.Errors)
	}
	if rs.OplogLength() != oplogLen || oplog.Stats().Appends != oplogAppends {
		t.Fatalf("the oplog took a batch the primary refused: %d entries, %d appends", rs.OplogLength(), oplog.Stats().Appends)
	}
	res = rs.BulkWrite("db", "c", []storage.WriteOp{storage.InsertWriteOp(bson.D("_id", "after"))}, storage.BulkOptions{WriteConcern: wc})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, m := range rs.Members() {
		if coll := m.Database("db").Collection("c"); coll.Count() != 1 || coll.FindID("after") == nil {
			t.Fatalf("member %s holds %d documents, want only the one written after the refusal", m.Name(), coll.Count())
		}
	}
}
