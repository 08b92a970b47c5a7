package mongod

import (
	"fmt"
	"math/rand"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// recoverRecordAtATime is the oracle batched replay is checked against: the
// recovery EnableDurability ran before runs existed — newest checkpoint, then
// every log record applied on its own, each batch through the ordinary
// BulkWrite with the watermark published per record. It leaves the WAL
// unattached; the test only reads the state it rebuilt.
func recoverRecordAtATime(t *testing.T, dir string) (*Server, RecoveryStats) {
	t.Helper()
	s := NewServer(Options{Name: "oracle"})
	var stats RecoveryStats
	cpLSN, cpDir, err := newestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cpDir != "" {
		n, err := s.loadCheckpoint(cpDir)
		if err != nil {
			t.Fatal(err)
		}
		stats.CheckpointLSN, stats.CollectionsLoaded = cpLSN, n
	}
	err = wal.Replay(dir+"/wal", func(rec *wal.Record) error {
		applied := false
		if rec.Kind == wal.KindBatch {
			coll := s.Database(rec.DB).Collection(rec.Coll)
			if rec.LSN > coll.LastLSN() {
				coll.BulkWrite(rec.Ops, storage.BulkOptions{Ordered: rec.Ordered})
				coll.SetReplayLSN(rec.LSN)
				applied = true
			}
		} else {
			applied = s.applyRecord(rec)
		}
		if applied {
			stats.RecordsReplayed++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, stats
}

// serverState renders everything recovery must reproduce: per collection,
// the documents in scan order, the watermark, and each user index's
// definition with the documents an index scan over it returns.
func serverState(t *testing.T, s *Server) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, dbName := range s.DatabaseNames() {
		db := s.Database(dbName)
		for _, coll := range db.Collections() {
			lines := []string{fmt.Sprintf("lastLSN=%d count=%d", coll.LastLSN(), coll.Count())}
			coll.Scan(func(d *bson.Doc) bool {
				lines = append(lines, d.ToJSON())
				return true
			})
			for _, ix := range coll.Indexes() {
				field := ix.Spec().Fields[0].Name
				docs, plan, err := coll.FindWithPlan(bson.D(field, bson.D("$gte", -1)), storage.FindOptions{Hint: ix.Name()})
				if err != nil {
					t.Fatalf("%s.%s: scanning %s: %v", dbName, coll.Name(), ix.Name(), err)
				}
				if plan.IndexUsed != ix.Name() {
					t.Fatalf("%s.%s: scan of %s planned as %q", dbName, coll.Name(), ix.Name(), plan.IndexUsed)
				}
				lines = append(lines, fmt.Sprintf("index %s unique=%v hits=%d", ix.Name(), ix.Unique(), len(docs)))
				for _, d := range docs {
					lines = append(lines, "  "+d.ToJSON())
				}
			}
			out[dbName+"."+coll.Name()] = lines
		}
	}
	return out
}

func diffStates(t *testing.T, what string, got, want map[string][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d collections, want %d", what, len(got), len(want))
	}
	for ns, w := range want {
		g, ok := got[ns]
		if !ok {
			t.Fatalf("%s: collection %s missing", what, ns)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: %s renders %d lines, want %d\n got[0]: %s\nwant[0]: %s", what, ns, len(g), len(w), g[0], w[0])
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: %s line %d differs\n got: %s\nwant: %s", what, ns, i, g[i], w[i])
			}
		}
	}
}

// TestDurabilityTortureBatchedReplayEquivalence writes a seeded log that
// exercises every way a replay run can start, stop and fail, then recovers
// it twice — through EnableDurability's batched runs and through the
// record-at-a-time oracle — and requires the same documents, index scans,
// watermarks and replay count from both, and the same documents and indexes
// as the server that wrote the log. The log has: two collections written
// alternately (a run of one) and in long stretches (one longer than
// replayRunCap); single- and multi-op batches; ordered batches that stop at
// a duplicate _id; unordered ones with a unique-index violation mid-batch;
// enough deletes to compact inside a run; Clear, EnsureIndex, DropIndex and
// DropCollection between runs; and a checkpoint whose watermark falls in the
// middle of a run.
func TestDurabilityTortureBatchedReplayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED16))
	dir := t.TempDir()
	live, _ := durableServer(t, dir, wal.SyncNone)
	db := live.Database("db")

	next := map[string]int{}    // per collection: next fresh _id
	alive := map[string][]int{} // per collection: ids believed present
	pick := func(coll string) int {
		ids := alive[coll]
		if len(ids) == 0 {
			return -1
		}
		return ids[rng.Intn(len(ids))]
	}
	fresh := func(coll string) *bson.Doc {
		id := next[coll]
		next[coll]++
		alive[coll] = append(alive[coll], id)
		// u is unique per document; k and g repeat.
		return bson.D(bson.IDKey, id, "u", id, "k", rng.Intn(50), "g", id%7, "pad", randomPad(rng))
	}
	// step issues one random batch against coll.
	step := func(coll string) {
		var ops []storage.WriteOp
		opts := storage.BulkOptions{Ordered: true}
		switch r := rng.Intn(10); {
		case r < 4: // single insert
			ops = []storage.WriteOp{storage.InsertWriteOp(fresh(coll))}
		case r < 6: // multi-op: insert, $set an older document, delete another
			ops = []storage.WriteOp{storage.InsertWriteOp(fresh(coll))}
			if id := pick(coll); id >= 0 {
				ops = append(ops, storage.UpdateWriteOp(query.UpdateSpec{
					Query: bson.D(bson.IDKey, id), Update: bson.D("$set", bson.D("k", rng.Intn(50), "touched", true)),
				}))
			}
			if id := pick(coll); id >= 0 {
				ops = append(ops, storage.DeleteWriteOp(bson.D(bson.IDKey, id), false))
			}
		case r < 7: // ordered, stops at a duplicate _id: the third op never runs
			dup := pick(coll)
			ops = []storage.WriteOp{
				storage.InsertWriteOp(fresh(coll)),
				storage.InsertWriteOp(bson.D(bson.IDKey, dup, "u", -5)),
				storage.InsertWriteOp(bson.D(bson.IDKey, fmt.Sprintf("never-%d", next[coll]), "u", -6)),
			}
		case r < 8: // unordered, unique-index violation on u mid-batch
			opts.Ordered = false
			ops = []storage.WriteOp{
				storage.InsertWriteOp(fresh(coll)),
				storage.InsertWriteOp(bson.D(bson.IDKey, fmt.Sprintf("clash-%d", next[coll]), "u", pick(coll))),
				storage.InsertWriteOp(fresh(coll)),
			}
		case r < 9: // upsert with the _id pinned, so replay assigns the same one
			id := next[coll]
			next[coll]++
			alive[coll] = append(alive[coll], id)
			ops = []storage.WriteOp{storage.UpdateWriteOp(query.UpdateSpec{
				Query: bson.D(bson.IDKey, id), Update: bson.D("$set", bson.D("u", id, "k", 1, "g", 0)), Upsert: true,
			})}
		default: // multi-document update through the k index
			ops = []storage.WriteOp{storage.UpdateWriteOp(query.UpdateSpec{
				Query: bson.D("k", rng.Intn(50)), Update: bson.D("$inc", bson.D("hits", 1)), Multi: true,
			})}
		}
		if res := db.BulkWrite(coll, ops, opts); res.DurabilityErr != nil {
			t.Fatalf("writing the log: %v", res.DurabilityErr)
		}
	}
	ensure := func(coll string, field string, unique bool) {
		if _, err := db.EnsureIndex(coll, bson.D(field, 1), unique); err != nil {
			t.Fatalf("EnsureIndex %s.%s: %v", coll, field, err)
		}
	}

	ensure("c1", "k", false)
	ensure("c1", "u", true)
	ensure("c2", "u", true)
	// A stretch on c1 longer than the run cap, with the checkpoint landing
	// inside it: the records before it stay in the log (nothing is pruned
	// from the one active segment) and replay must skip exactly those.
	for i := 0; i < replayRunCap+200; i++ {
		if i == 300 {
			if _, err := live.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		step("c1")
	}
	for i := 0; i < 60; i++ { // alternating collections: runs of one
		step("c1")
		step("c2")
	}
	for i := 0; i < 40; i++ {
		step("c2")
	}
	db.Collection("c2").Drop() // Clear between runs; wipes c2's indexes too
	alive["c2"] = nil
	for i := 0; i < 30; i++ {
		step("c2")
	}
	ensure("c2", "g", false) // backfilled from the data replayed so far
	db.Collection("c1").DropIndex("k_1")
	for i := 0; i < 30; i++ {
		step("c1")
	}
	// Delete more than half of c1 inside one run, so compaction renumbers
	// positions mid-run.
	for g := 0; g < 5; g++ {
		if res := db.BulkWrite("c1", []storage.WriteOp{storage.DeleteWriteOp(bson.D("g", g), true)}, storage.BulkOptions{Ordered: true}); res.DurabilityErr != nil {
			t.Fatal(res.DurabilityErr)
		}
		step("c1")
	}
	ensure("c1", "g", false) // built over the compacted positions
	for i := 0; i < 10; i++ {
		step("c1")
	}
	if !db.DropCollection("c2") {
		t.Fatal("c2 was not dropped")
	}
	alive["c2"] = nil
	for i := 0; i < 20; i++ { // a new incarnation of c2
		step("c2")
	}
	want := serverState(t, live)
	if err := live.CloseDurability(); err != nil {
		t.Fatal(err)
	}

	oracle, oracleStats := recoverRecordAtATime(t, dir)
	batched, batchedStats := durableServer(t, dir, wal.SyncNone)
	defer batched.CloseDurability()
	if batchedStats != oracleStats {
		t.Fatalf("batched recovery stats %+v, record-at-a-time %+v", batchedStats, oracleStats)
	}
	if batchedStats.CheckpointLSN == 0 || batchedStats.RecordsReplayed < replayRunCap {
		t.Fatalf("recovery did not cross a checkpoint and a full run: %+v", batchedStats)
	}
	got := serverState(t, batched)
	diffStates(t, "batched vs record-at-a-time", got, serverState(t, oracle))
	diffStates(t, "batched vs the server that wrote the log", got, want)
}

func randomPad(rng *rand.Rand) string {
	b := make([]byte, 8+rng.Intn(40))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}
