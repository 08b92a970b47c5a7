package mongod

import (
	"os"
	"path/filepath"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

func durableServer(t *testing.T, dir string, sync wal.SyncPolicy) (*Server, RecoveryStats) {
	t.Helper()
	s := NewServer(Options{Name: "durable"})
	stats, err := s.EnableDurability(Durability{Dir: dir, Sync: sync})
	if err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	return s, stats
}

func TestDurabilityRecoverAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s, stats := durableServer(t, dir, wal.SyncAlways)
	if stats.CheckpointLSN != 0 || stats.RecordsReplayed != 0 {
		t.Fatalf("fresh dir should recover nothing: %+v", stats)
	}
	db := s.Database("shop")

	// Scalar writes, auto-assigned ids, a bulk batch, an update and a
	// delete: the whole write surface.
	autoID, err := db.Insert("orders", bson.D("sku", "a-1", "qty", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("orders", bson.D(bson.IDKey, "o-2", "sku", "b-9", "qty", 5)); err != nil {
		t.Fatal(err)
	}
	res := db.BulkWrite("orders", []storage.WriteOp{
		storage.InsertWriteOp(bson.D(bson.IDKey, "o-3", "qty", 1)),
		storage.UpdateWriteOp(query.UpdateSpec{
			Query: bson.D(bson.IDKey, "o-2"), Update: bson.D("$inc", bson.D("qty", 10)),
		}),
		storage.DeleteWriteOp(bson.D("sku", "a-1"), true),
	}, storage.BulkOptions{Ordered: true, Journaled: true})
	if err := res.FirstError(); err != nil {
		t.Fatalf("bulk: %v", err)
	}

	// Crash: abandon the server without closing the WAL.
	s2, stats2 := durableServer(t, dir, wal.SyncAlways)
	if stats2.RecordsReplayed != 3 {
		t.Fatalf("replayed %d records, want 3", stats2.RecordsReplayed)
	}
	coll := s2.Database("shop").Collection("orders")
	if coll.Count() != 2 {
		t.Fatalf("recovered %d documents, want 2", coll.Count())
	}
	if coll.FindID(autoID) != nil {
		t.Fatalf("deleted document resurrected")
	}
	doc := coll.FindID("o-2")
	if doc == nil {
		t.Fatalf("o-2 lost")
	}
	if qty, _ := bson.AsInt(doc.GetOr("qty", 0)); qty != 15 {
		t.Fatalf("o-2 qty = %d, want 15 (update not replayed)", qty)
	}
	if coll.FindID("o-3") == nil {
		t.Fatalf("bulk insert lost")
	}
}

func TestDurabilityAutoIDsSurviveReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir, wal.SyncAlways)
	db := s.Database("db")
	var ids []any
	for i := 0; i < 5; i++ {
		id, err := db.Insert("c", bson.D("i", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s2, _ := durableServer(t, dir, wal.SyncAlways)
	coll := s2.Database("db").Collection("c")
	for i, id := range ids {
		if coll.FindID(id) == nil {
			t.Fatalf("document %d lost its pre-assigned id %v across recovery", i, id)
		}
	}
}

// TestDurabilityUpsertIDsSurviveReplay: an upsert that names no _id inserts
// under the id it acknowledged, and recovery from the log finds the document
// under that id. The log records an op before it applies, so the id has to be
// drawn before the record is written; at the parent commit replay drew a
// fresh ObjectID and FindID(UpsertedID) came back nil.
func TestDurabilityUpsertIDsSurviveReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		update *bson.Doc
	}{
		{"operator", bson.D("$set", bson.D("v", 1))},
		{"replacement", bson.D("k", 1, "v", 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := durableServer(t, dir, wal.SyncAlways)
			res := s.Database("db").BulkWrite("c", []storage.WriteOp{
				storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("k", 1), Update: tc.update, Upsert: true}),
			}, storage.BulkOptions{Ordered: true, Journaled: true})
			if err := res.FirstError(); err != nil || res.Upserted != 1 {
				t.Fatalf("upsert: %+v, %v", res, err)
			}
			id := res.UpsertedIDs[0]
			if got := s.Database("db").Collection("c").FindID(id); got == nil {
				t.Fatalf("FindID(%v) before recovery = nil", id)
			}

			s2, _ := durableServer(t, dir, wal.SyncAlways)
			coll := s2.Database("db").Collection("c")
			if coll.Count() != 1 {
				t.Fatalf("recovered %d documents, want 1", coll.Count())
			}
			doc := coll.FindID(id)
			if doc == nil {
				t.Fatalf("the upserted document lost its acknowledged id %v across recovery", id)
			}
			if want := bson.D(bson.IDKey, id, "k", int64(1), "v", int64(1)); !doc.Equal(want) {
				t.Fatalf("recovered %v, want %v", doc, want)
			}
		})
	}
}

func TestCheckpointPrunesAndSeedsRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir, wal.SyncAlways)
	db := s.Database("db")
	for i := 0; i < 20; i++ {
		if _, err := db.Insert("c", bson.D(bson.IDKey, i, "v", i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if st.LSN != 20 || st.Collections != 1 {
		t.Fatalf("checkpoint stats = %+v", st)
	}
	// Post-checkpoint writes only exist in the log.
	for i := 20; i < 25; i++ {
		if _, err := db.Insert("c", bson.D(bson.IDKey, i, "v", i)); err != nil {
			t.Fatal(err)
		}
	}

	s2, stats := durableServer(t, dir, wal.SyncAlways)
	if stats.CheckpointLSN != 20 || stats.CollectionsLoaded != 1 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	if stats.RecordsReplayed != 5 {
		t.Fatalf("replayed %d records on top of the checkpoint, want 5", stats.RecordsReplayed)
	}
	if got := s2.Database("db").Collection("c").Count(); got != 25 {
		t.Fatalf("recovered %d documents, want 25", got)
	}

	// A second checkpoint supersedes the first.
	st2, err := s2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Skipped {
		t.Fatalf("checkpoint with 5 new records skipped")
	}
	if names := sortedCheckpointNames(dir); len(names) != 1 {
		t.Fatalf("stale checkpoints left behind: %v", names)
	}
	// With nothing journaled since, a further checkpoint is a no-op.
	st3, err := s2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Skipped || st3.LSN != st2.LSN {
		t.Fatalf("idle checkpoint not skipped: %+v", st3)
	}
}

func TestCheckpointPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Options{Name: "durable"})
	if _, err := s.EnableDurability(Durability{Dir: dir, Sync: wal.SyncAlways, SegmentMaxBytes: 256}); err != nil {
		t.Fatal(err)
	}
	db := s.Database("db")
	for i := 0; i < 40; i++ {
		if _, err := db.Insert("c", bson.D(bson.IDKey, i)); err != nil {
			t.Fatal(err)
		}
	}
	before := countSegments(t, filepath.Join(dir, "wal"))
	if before < 3 {
		t.Fatalf("expected several segments, got %d", before)
	}
	st, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPruned == 0 {
		t.Fatalf("checkpoint pruned nothing (had %d segments)", before)
	}
	after := countSegments(t, filepath.Join(dir, "wal"))
	if after >= before {
		t.Fatalf("segments %d -> %d, expected a drop", before, after)
	}
	// Recovery from the pruned log still reproduces everything.
	s2, _ := durableServer(t, dir, wal.SyncAlways)
	if got := s2.Database("db").Collection("c").Count(); got != 40 {
		t.Fatalf("recovered %d documents after prune, want 40", got)
	}
}

func TestDurabilityDropsDoNotResurrect(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir, wal.SyncAlways)
	db := s.Database("db")
	if _, err := db.Insert("keep", bson.D(bson.IDKey, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("gone", bson.D(bson.IDKey, 1)); err != nil {
		t.Fatal(err)
	}
	if !db.DropCollection("gone") {
		t.Fatalf("drop failed")
	}
	other := s.Database("scratch")
	if _, err := other.Insert("t", bson.D(bson.IDKey, 1)); err != nil {
		t.Fatal(err)
	}
	if !s.DropDatabase("scratch") {
		t.Fatalf("drop database failed")
	}
	// ReplaceContents logs one replace record: the wipe and the new batch.
	if err := db.Collection("keep").ReplaceContents([]*bson.Doc{bson.D(bson.IDKey, "fresh")}); err != nil {
		t.Fatal(err)
	}

	s2, _ := durableServer(t, dir, wal.SyncAlways)
	db2 := s2.Database("db")
	if db2.HasCollection("gone") {
		t.Fatalf("dropped collection resurrected")
	}
	for _, name := range s2.DatabaseNames() {
		if name == "scratch" {
			t.Fatalf("dropped database resurrected")
		}
	}
	keep := db2.Collection("keep")
	if keep.Count() != 1 || keep.FindID("fresh") == nil {
		t.Fatalf("ReplaceContents state not reproduced: count=%d", keep.Count())
	}
}

// TestDurabilityDropDatabaseThenRecreate pins the per-collection drop
// replay rule: a database dropped and then recreated (with a checkpoint
// taken after the recreation) must recover with ONLY the post-drop
// collections — the pre-drop ones replayed from older records must not ride
// along on the recreated database's higher watermarks.
func TestDurabilityDropDatabaseThenRecreate(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir, wal.SyncAlways)
	if _, err := s.Database("db1").Insert("c1", bson.D(bson.IDKey, 1)); err != nil {
		t.Fatal(err)
	}
	if !s.DropDatabase("db1") {
		t.Fatal("drop failed")
	}
	if _, err := s.Database("db1").Insert("c2", bson.D(bson.IDKey, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2, _ := durableServer(t, dir, wal.SyncAlways)
	db := s2.Database("db1")
	if db.HasCollection("c1") {
		t.Fatalf("pre-drop collection c1 resurrected: %d docs", db.Collection("c1").Count())
	}
	if !db.HasCollection("c2") || db.Collection("c2").Count() != 1 {
		t.Fatalf("post-drop collection c2 lost")
	}
}

// TestDurabilityIndexesSurviveRecovery pins index durability: secondary
// indexes (and their unique enforcement, which shapes which logged inserts
// actually applied) must be identical after a crash, both via pure log
// replay and via a checkpoint.
func TestDurabilityIndexesSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir, wal.SyncAlways)
	db := s.Database("db")
	if _, err := db.EnsureIndex("c", bson.D("k", 1), true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("c", bson.D(bson.IDKey, 1, "k", "a")); err != nil {
		t.Fatal(err)
	}
	// Rejected by the unique index — logged before validation, so replay
	// must reject it again, which only works if the index is rebuilt first.
	if _, err := db.Insert("c", bson.D(bson.IDKey, 2, "k", "a")); err == nil {
		t.Fatal("duplicate key accepted")
	}
	// Also create-and-drop an index: the drop must not resurrect.
	if _, err := db.EnsureIndex("c", bson.D("tmp", 1), false); err != nil {
		t.Fatal(err)
	}
	if !db.Collection("c").DropIndex("tmp_1") {
		t.Fatal("drop index failed")
	}

	check := func(s2 *Server, stage string) {
		t.Helper()
		coll := s2.Database("db").Collection("c")
		if coll.Count() != 1 {
			t.Fatalf("%s: recovered %d documents, want 1 (unique rejection not reproduced)", stage, coll.Count())
		}
		if coll.Index("k_1") == nil {
			t.Fatalf("%s: unique index lost in recovery", stage)
		}
		if coll.Index("tmp_1") != nil {
			t.Fatalf("%s: dropped index resurrected", stage)
		}
		if _, err := s2.Database("db").Insert("c", bson.D(bson.IDKey, 3, "k", "a")); err == nil {
			t.Fatalf("%s: unique enforcement off after recovery", stage)
		}
	}
	// Crash + pure log replay.
	s2, _ := durableServer(t, dir, wal.SyncAlways)
	check(s2, "replay")
	// Checkpoint on the recovered server, then recover from the snapshot.
	if _, err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s3, stats := durableServer(t, dir, wal.SyncAlways)
	if stats.CollectionsLoaded == 0 {
		t.Fatalf("checkpoint not used: %+v", stats)
	}
	check(s3, "checkpoint")
}

// TestDurabilityTortureTornServerLog is the server-level half of the crash
// torture: acknowledged (j: true) writes, then a mutilated log tail, then
// recovery. Every acknowledged write must be present; the torn suffix must
// not produce partial state.
func TestDurabilityTortureTornServerLog(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir, wal.SyncGroupCommit)
	db := s.Database("db")
	const acked = 12
	for i := 0; i < acked; i++ {
		res := db.BulkWrite("c", []storage.WriteOp{
			storage.InsertWriteOp(bson.D(bson.IDKey, i, "v", i)),
		}, storage.BulkOptions{Ordered: true, Journaled: true})
		if err := res.FirstError(); err != nil {
			t.Fatal(err)
		}
	}
	// Mutilate the tail with a torn record, as a crash mid-append would.
	walDir := filepath.Join(dir, "wal")
	segs, err := os.ReadDir(walDir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal dir: %v", err)
	}
	tail := filepath.Join(walDir, segs[len(segs)-1].Name())
	f, err := os.OpenFile(tail, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, stats := durableServer(t, dir, wal.SyncGroupCommit)
	if stats.RecordsReplayed != acked {
		t.Fatalf("replayed %d records, want %d", stats.RecordsReplayed, acked)
	}
	coll := s2.Database("db").Collection("c")
	if coll.Count() != acked {
		t.Fatalf("recovered %d documents, want %d", coll.Count(), acked)
	}
	for i := 0; i < acked; i++ {
		if coll.FindID(i) == nil {
			t.Fatalf("acknowledged write %d lost", i)
		}
	}
	// And the recovered server keeps accepting durable writes.
	res := db2Write(s2)
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
}

// TestDurabilityTortureOutTornRecord: a $out whose log record is torn by a
// crash mid-append is not replayed at all, whichever of its bytes are lost.
// The target recovers with the acknowledged documents it held before the
// $out, never with the wipe alone.
func TestDurabilityTortureOutTornRecord(t *testing.T) {
	const acked = 5
	for _, cut := range []int{1, 16, 64} {
		dir := t.TempDir()
		s, _ := durableServer(t, dir, wal.SyncAlways)
		db := s.Database("db")
		for i := 0; i < acked; i++ {
			res := db.BulkWrite("target", []storage.WriteOp{
				storage.InsertWriteOp(bson.D(bson.IDKey, i, "old", true)),
			}, storage.BulkOptions{Ordered: true, Journaled: true})
			if err := res.FirstError(); err != nil {
				t.Fatal(err)
			}
		}
		var src []*bson.Doc
		for i := 0; i < 20; i++ {
			src = append(src, bson.D(bson.IDKey, 100+i, "v", i))
		}
		if _, err := db.InsertMany("src", src); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Aggregate("src", []*bson.Doc{bson.D("$out", "target")}); err != nil {
			t.Fatal(err)
		}
		if n := db.Collection("target").Count(); n != len(src) {
			t.Fatalf("the $out left %d documents, want %d", n, len(src))
		}

		// Crash mid-append of the $out's record: abandon the server and cut
		// the log's last bytes, which belong to that record.
		walDir := filepath.Join(dir, "wal")
		segs, err := os.ReadDir(walDir)
		if err != nil || len(segs) == 0 {
			t.Fatalf("wal dir: %v", err)
		}
		tail := filepath.Join(walDir, segs[len(segs)-1].Name())
		info, err := os.Stat(tail)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(tail, info.Size()-int64(cut)); err != nil {
			t.Fatal(err)
		}

		s2, _ := durableServer(t, dir, wal.SyncAlways)
		coll := s2.Database("db").Collection("target")
		if coll.Count() != acked {
			t.Fatalf("cut %d: recovered %d documents in the target, want its %d acknowledged ones", cut, coll.Count(), acked)
		}
		for i := 0; i < acked; i++ {
			if doc := coll.FindID(i); doc == nil || doc.GetOr("old", nil) != true {
				t.Fatalf("cut %d: acknowledged document %d lost", cut, i)
			}
		}
		if n := s2.Database("db").Collection("src").Count(); n != len(src) {
			t.Fatalf("cut %d: recovered %d source documents, want %d", cut, n, len(src))
		}
	}
}

// TestDurabilityReplaysWipeThenBatch: a log written before $out journaled
// one record holds a wipe record and then an insert batch per $out; it
// replays as it always did, the wipe and then the batch.
func TestDurabilityReplaysWipeThenBatch(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*wal.Record{
		{Kind: wal.KindBatch, DB: "db", Coll: "target", Ordered: true, Ops: storage.InsertOps([]*bson.Doc{
			bson.D(bson.IDKey, "old1"), bson.D(bson.IDKey, "old2"),
		})},
		{Kind: wal.KindClear, DB: "db", Coll: "target"},
		{Kind: wal.KindBatch, DB: "db", Coll: "target", Ordered: true, Ops: storage.InsertOps([]*bson.Doc{
			bson.D(bson.IDKey, "new"),
		})},
	} {
		commit, err := w.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := commit.Wait(true); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, stats := durableServer(t, dir, wal.SyncAlways)
	if stats.RecordsReplayed != 3 {
		t.Fatalf("replayed %d records, want 3", stats.RecordsReplayed)
	}
	coll := s.Database("db").Collection("target")
	if coll.Count() != 1 || coll.FindID("new") == nil {
		t.Fatalf("recovered %d documents in the target, want only \"new\"", coll.Count())
	}
}

func db2Write(s *Server) storage.BulkResult {
	return s.Database("db").BulkWrite("c", []storage.WriteOp{
		storage.InsertWriteOp(bson.D(bson.IDKey, "post-recovery")),
	}, storage.BulkOptions{Ordered: true, Journaled: true})
}

func TestEnableDurabilityTwiceFails(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir, wal.SyncAlways)
	if _, err := s.EnableDurability(Durability{Dir: dir}); err == nil {
		t.Fatalf("second EnableDurability should fail")
	}
	if !s.DurabilityEnabled() {
		t.Fatalf("DurabilityEnabled = false")
	}
	if countSegments(t, filepath.Join(dir, "wal")) == 0 {
		t.Fatalf("no WAL segment in %s", filepath.Join(dir, "wal"))
	}
}

func countSegments(t *testing.T, walDir string) int {
	t.Helper()
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}
