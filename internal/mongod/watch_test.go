package mongod

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/changestream"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

const watchWait = 2 * time.Second

// nextEvent fails the test if no event arrives within the wait.
func nextEvent(t *testing.T, s changestream.Stream) *changestream.Event {
	t.Helper()
	ev, err := s.Next(watchWait)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if ev == nil {
		t.Fatal("Next: timed out waiting for an event")
	}
	return ev
}

// noEvent asserts the stream is quiet.
func noEvent(t *testing.T, s changestream.Stream) {
	t.Helper()
	ev, err := s.Next(20 * time.Millisecond)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if ev != nil {
		t.Fatalf("unexpected event: %+v doc=%v", ev, ev.Doc())
	}
}

func TestWatchRequiresDurability(t *testing.T) {
	s := NewServer(Options{})
	if _, err := s.Watch("db", "c", WatchOptions{}); err == nil {
		t.Fatal("Watch on a non-durable server should fail")
	}
}

// TestWatchLiveEvents drives the basic live tail: scoped delivery, operation
// types, document keys and full documents, and drop events.
func TestWatchLiveEvents(t *testing.T) {
	s, _ := durableServer(t, t.TempDir(), wal.SyncGroupCommit)
	defer s.CloseDurability()
	db := s.Database("app")

	stream, err := s.Watch("app", "orders", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	if _, err := db.Insert("orders", bson.D(bson.IDKey, 1, "sku", "a")); err != nil {
		t.Fatal(err)
	}
	// A write to another collection must not reach the scoped watcher.
	if _, err := db.Insert("invoices", bson.D(bson.IDKey, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update("orders", updateSpec(bson.D(bson.IDKey, 1), bson.D("$set", bson.D("sku", "b")))); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("orders", bson.D(bson.IDKey, 1), false); err != nil {
		t.Fatal(err)
	}

	ins := nextEvent(t, stream)
	if ins.OpType != changestream.OpInsert || ins.DB != "app" || ins.Coll != "orders" {
		t.Fatalf("insert event: %+v", ins)
	}
	if sku, _ := ins.FullDocument.Get("sku"); sku != "a" {
		t.Fatalf("insert fullDocument: %v", ins.FullDocument)
	}
	upd := nextEvent(t, stream)
	if upd.OpType != changestream.OpUpdate {
		t.Fatalf("update event: %+v", upd)
	}
	if id, _ := bson.AsInt(upd.DocumentKey.GetOr(bson.IDKey, nil)); id != 1 {
		t.Fatalf("update documentKey: %v", upd.DocumentKey)
	}
	del := nextEvent(t, stream)
	if del.OpType != changestream.OpDelete {
		t.Fatalf("delete event: %+v", del)
	}
	if upd.Token.LSN <= ins.Token.LSN || del.Token.LSN <= upd.Token.LSN {
		t.Fatalf("tokens not increasing: %v %v %v", ins.Token, upd.Token, del.Token)
	}
	noEvent(t, stream)

	// The insert payload must be a snapshot: mutating the stored document
	// after the event was delivered must not reach the watcher's copy.
	if sku, _ := ins.FullDocument.Get("sku"); sku != "a" {
		t.Fatalf("event payload aliased stored document: %v", ins.FullDocument)
	}

	if !db.DropCollection("orders") {
		t.Fatal("drop failed")
	}
	drop := nextEvent(t, stream)
	if drop.OpType != changestream.OpDrop || drop.Coll != "orders" {
		t.Fatalf("drop event: %+v", drop)
	}
}

// TestWatchPipelineFilter checks $match stages gate delivery using the
// matcher machinery over the event document.
func TestWatchPipelineFilter(t *testing.T) {
	s, _ := durableServer(t, t.TempDir(), wal.SyncGroupCommit)
	defer s.CloseDurability()
	db := s.Database("app")

	stream, err := s.Watch("app", "orders", WatchOptions{Pipeline: []*bson.Doc{
		bson.D("$match", bson.D("operationType", "insert")),
		bson.D("$match", bson.D("fullDocument.qty", bson.D("$gte", 10))),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	if _, err := db.Insert("orders", bson.D(bson.IDKey, 1, "qty", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("orders", bson.D(bson.IDKey, 2, "qty", 25)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Delete("orders", bson.D(bson.IDKey, 2), false); err != nil {
		t.Fatal(err)
	}
	ev := nextEvent(t, stream)
	if id, _ := bson.AsInt(ev.DocumentKey.GetOr(bson.IDKey, nil)); id != 2 || ev.OpType != changestream.OpInsert {
		t.Fatalf("filtered stream delivered %+v", ev)
	}
	noEvent(t, stream)

	// Non-$match stages are rejected up front.
	if _, err := s.Watch("app", "orders", WatchOptions{Pipeline: []*bson.Doc{bson.D("$group", bson.D())}}); err == nil {
		t.Fatal("non-$match stage should be rejected")
	}
}

// TestWatchConcurrentBulkWrites runs concurrent unordered bulk writers
// against a watched collection and checks every watcher observes every
// committed write exactly once, in non-decreasing LSN order — one watcher,
// and several sharing the same publishes.
func TestWatchConcurrentBulkWrites(t *testing.T) {
	for _, watchers := range []int{1, 4} {
		t.Run(fmt.Sprintf("watchers=%d", watchers), func(t *testing.T) {
			s, _ := durableServer(t, t.TempDir(), wal.SyncGroupCommit)
			defer s.CloseDurability()
			db := s.Database("app")

			streams := make([]changestream.Stream, watchers)
			for i := range streams {
				stream, err := s.Watch("app", "rows", WatchOptions{BufferSize: 4096})
				if err != nil {
					t.Fatal(err)
				}
				defer stream.Close()
				streams[i] = stream
			}

			const writers, perWriter = 4, 100
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i += 10 {
						docs := make([]*bson.Doc, 0, 10)
						for k := 0; k < 10; k++ {
							docs = append(docs, bson.D(bson.IDKey, fmt.Sprintf("w%d-%d", w, i+k)))
						}
						res := db.BulkWrite("rows", storage.InsertOps(docs), storage.BulkOptions{})
						if err := res.FirstError(); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()

			for _, stream := range streams {
				seen := make(map[string]bool)
				lastLSN := int64(0)
				for len(seen) < writers*perWriter {
					ev := nextEvent(t, stream)
					if ev.Token.LSN < lastLSN {
						t.Fatalf("LSN went backwards: %d after %d", ev.Token.LSN, lastLSN)
					}
					lastLSN = ev.Token.LSN
					id, _ := ev.DocumentKey.Get(bson.IDKey)
					key := fmt.Sprint(id)
					if seen[key] {
						t.Fatalf("duplicate event for %s", key)
					}
					seen[key] = true
				}
				noEvent(t, stream)
			}
		})
	}
}

// TestWatchResumeAcrossRestart is the crash-resume satellite: write, consume
// part of the stream, abandon the server without a clean close (the acked
// writes are on disk), recover into a fresh server, resume from the token
// and check the tail arrives with no loss and no duplicates — across WAL
// segment rotation.
func TestWatchResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := NewServer(Options{})
	if _, err := s1.EnableDurability(Durability{Dir: dir, SegmentMaxBytes: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	db1 := s1.Database("app")
	const before = 30
	for i := 0; i < before; i++ {
		if _, err := db1.Insert("rows", bson.D(bson.IDKey, i, "pad", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")); err != nil {
			t.Fatal(err)
		}
	}

	start := changestream.Token{}
	startStr := start.String()
	// Resume from LSN 0 replays everything written so far.
	stream, err := s1.Watch("app", "rows", WatchOptions{ResumeAfter: startStr})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for i := 0; i < before/2; i++ {
		ev := nextEvent(t, stream)
		id, _ := bson.AsInt(ev.DocumentKey.GetOr(bson.IDKey, nil))
		got = append(got, id)
	}
	token := stream.ResumeToken()
	stream.Close()

	// "Crash": abandon s1 without CloseDurability. Every insert above was
	// acknowledged, so its record is fsynced; the new server recovers them.
	s2 := NewServer(Options{})
	if _, err := s2.EnableDurability(Durability{Dir: dir, SegmentMaxBytes: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	defer s2.CloseDurability()
	db2 := s2.Database("app")
	if n := db2.Collection("rows").Count(); n != before {
		t.Fatalf("recovered %d rows, want %d", n, before)
	}

	resumed, err := s2.Watch("app", "rows", WatchOptions{ResumeAfter: token})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	// New writes after the restart ride the live tail of the same stream.
	const after = 10
	for i := 0; i < after; i++ {
		if _, err := db2.Insert("rows", bson.D(bson.IDKey, before+i)); err != nil {
			t.Fatal(err)
		}
	}
	for len(got) < before+after {
		ev := nextEvent(t, resumed)
		id, _ := bson.AsInt(ev.DocumentKey.GetOr(bson.IDKey, nil))
		got = append(got, id)
	}
	noEvent(t, resumed)
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("event %d carries _id %d: resume lost or duplicated writes (%v)", i, id, got)
		}
	}
}

// TestWatchResumeBelowCheckpointCutoff checks a checkpoint-pruned token
// fails with a clean ErrTokenTooOld.
func TestWatchResumeBelowCheckpointCutoff(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Options{})
	if _, err := s.EnableDurability(Durability{Dir: dir, Sync: wal.SyncAlways, SegmentMaxBytes: 256}); err != nil {
		t.Fatal(err)
	}
	defer s.CloseDurability()
	db := s.Database("app")
	for i := 0; i < 40; i++ {
		if _, err := db.Insert("rows", bson.D(bson.IDKey, i, "pad", "xxxxxxxxxxxxxxxx")); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.SegmentsPruned == 0 {
		t.Fatal("checkpoint pruned nothing; the test needs rotated segments")
	}
	old := changestream.Token{LSN: 1, Op: 0}
	if _, err := s.Watch("app", "rows", WatchOptions{ResumeAfter: old.String()}); !errors.Is(err, changestream.ErrTokenTooOld) {
		t.Fatalf("want ErrTokenTooOld, got %v", err)
	}
}

// TestWatchFailedOpsMirrorTheJournal pins the documented attempt-stream
// semantics: the stream tails the journal, so an op that failed to apply
// (duplicate _id) still appears, and a resumed stream sees the identical
// sequence.
func TestWatchFailedOpsMirrorTheJournal(t *testing.T) {
	s, _ := durableServer(t, t.TempDir(), wal.SyncGroupCommit)
	defer s.CloseDurability()
	db := s.Database("app")

	stream, err := s.Watch("app", "rows", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := db.Insert("rows", bson.D(bson.IDKey, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("rows", bson.D(bson.IDKey, 1)); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	first, second := nextEvent(t, stream), nextEvent(t, stream)
	if first.OpType != changestream.OpInsert || second.OpType != changestream.OpInsert {
		t.Fatalf("journal mirror: %+v %+v", first, second)
	}
	tok, err := changestream.ParseToken(first.Token.String())
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := s.Watch("app", "rows", WatchOptions{ResumeAfter: tok.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	re := nextEvent(t, resumed)
	if re.Token != second.Token {
		t.Fatalf("resume diverged from live: %v vs %v", re.Token, second.Token)
	}
}

// TestWatchOutIsOneRecord: a $out into a watched collection is a drop event
// and then one insert per document, all under the $out's one record, with
// the tokens increasing within it; a stream resumed after the drop replays
// the same inserts under the same tokens.
func TestWatchOutIsOneRecord(t *testing.T) {
	s, _ := durableServer(t, t.TempDir(), wal.SyncGroupCommit)
	defer s.CloseDurability()
	db := s.Database("app")
	if _, err := db.InsertMany("src", []*bson.Doc{bson.D(bson.IDKey, 1), bson.D(bson.IDKey, 2), bson.D(bson.IDKey, 3)}); err != nil {
		t.Fatal(err)
	}
	stream, err := s.Watch("app", "target", WatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := db.Aggregate("src", []*bson.Doc{bson.D("$sort", bson.D(bson.IDKey, 1)), bson.D("$out", "target")}); err != nil {
		t.Fatal(err)
	}
	drop := nextEvent(t, stream)
	if drop.OpType != changestream.OpDrop || drop.Token.Op != 0 {
		t.Fatalf("first event of the $out = %+v, want a drop at op 0", drop)
	}
	var inserts []*changestream.Event
	for i := 1; i <= 3; i++ {
		ev := nextEvent(t, stream)
		if ev.OpType != changestream.OpInsert || ev.Token.LSN != drop.Token.LSN || ev.Token.Op != int32(i) {
			t.Fatalf("event %d of the $out = %+v, want an insert at %d/%d", i, ev, drop.Token.LSN, i)
		}
		if id, _ := bson.AsInt(ev.FullDocument.ID()); id != int64(i) {
			t.Fatalf("insert %d carries %v", i, ev.FullDocument)
		}
		inserts = append(inserts, ev)
	}
	noEvent(t, stream)

	resumed, err := s.Watch("app", "target", WatchOptions{ResumeAfter: drop.Token.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	for _, live := range inserts {
		re := nextEvent(t, resumed)
		if re.Token != live.Token || !re.FullDocument.Equal(live.FullDocument) {
			t.Fatalf("resume diverged from live: %v %v vs %v %v", re.Token, re.FullDocument, live.Token, live.FullDocument)
		}
	}
}

func updateSpec(q, u *bson.Doc) query.UpdateSpec { return query.UpdateSpec{Query: q, Update: u} }
