package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
)

func testDoc(i int) *bson.Doc {
	return bson.D(bson.IDKey, i, "v", fmt.Sprintf("value-%d", i))
}

func batchRecord(coll string, i int) *Record {
	return &Record{
		Kind: KindBatch, DB: "db", Coll: coll, Ordered: true,
		Ops: []storage.WriteOp{storage.InsertWriteOp(testDoc(i))},
	}
}

func mustOpen(t *testing.T, opts Options) *WAL {
	t.Helper()
	w, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

func appendWait(t *testing.T, w *WAL, rec *Record, journaled bool) int64 {
	t.Helper()
	commit, err := w.Append(rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := commit.Wait(journaled); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return commit.LSN()
}

func TestRecordRoundTrip(t *testing.T) {
	records := []*Record{
		{Kind: KindBatch, DB: "db", Coll: "c", Ordered: true, Ops: []storage.WriteOp{
			storage.InsertWriteOp(bson.D(bson.IDKey, 1, "nested", bson.D("a", bson.A(1, "x")))),
			storage.UpdateWriteOp(query.UpdateSpec{
				Query:  bson.D("v", bson.D("$gt", 3)),
				Update: bson.D("$set", bson.D("flag", true)),
				Multi:  true, Upsert: true,
			}),
			storage.DeleteWriteOp(bson.D("v", 9), false),
			// An upsert carries the _id a document it inserts gets; the one
			// above, like a record written before ids were logged, has none
			// and replays drawing a fresh one.
			{Kind: storage.UpdateOp, Update: query.UpdateSpec{
				Query: bson.D("k", 1), Update: bson.D("$set", bson.D("v", 1)), Upsert: true,
			}, UpsertID: bson.NewObjectID()},
		}},
		{Kind: KindClear, DB: "db", Coll: "c"},
		{Kind: KindDropCollection, DB: "db", Coll: "gone"},
		{Kind: KindDropDatabase, DB: "olddb"},
		// An insert op with no document (the shape a malformed bulk op
		// produces) must survive the round trip as-is.
		{Kind: KindBatch, DB: "db", Coll: "c", Ops: []storage.WriteOp{{Kind: storage.InsertOp}}},
	}
	for i, rec := range records {
		rec.LSN = int64(i + 1)
		frame := EncodeRecord(rec)
		got, rest, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("record %d: %d leftover bytes", i, len(rest))
		}
		if got.LSN != rec.LSN || got.Kind != rec.Kind || got.DB != rec.DB || got.Coll != rec.Coll || got.Ordered != rec.Ordered {
			t.Fatalf("record %d: header mismatch: %+v vs %+v", i, got, rec)
		}
		if len(got.Ops) != len(rec.Ops) {
			t.Fatalf("record %d: %d ops, want %d", i, len(got.Ops), len(rec.Ops))
		}
		for k := range rec.Ops {
			want, have := rec.Ops[k], got.Ops[k]
			if have.Kind != want.Kind {
				t.Fatalf("record %d op %d: kind %v vs %v", i, k, have.Kind, want.Kind)
			}
			if (want.Doc == nil) != (have.Doc == nil) || (want.Doc != nil && !have.Doc.Equal(want.Doc)) {
				t.Fatalf("record %d op %d: doc mismatch", i, k)
			}
			if (want.UpsertID == nil) != (have.UpsertID == nil) || bson.Compare(have.UpsertID, want.UpsertID) != 0 {
				t.Fatalf("record %d op %d: upsert id %v, want %v", i, k, have.UpsertID, want.UpsertID)
			}
		}
	}
}

func TestDecodeRecordRejectsCorruption(t *testing.T) {
	frame := EncodeRecord(&Record{LSN: 1, Kind: KindBatch, DB: "db", Coll: "c"})
	// Truncations anywhere are torn records.
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeRecord(frame[:cut]); err != ErrTornRecord {
			t.Fatalf("cut at %d: err = %v, want ErrTornRecord", cut, err)
		}
	}
	// A flipped payload byte fails the checksum.
	for i := frameHeaderSize; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0xff
		if _, _, err := DecodeRecord(bad); err != ErrTornRecord {
			t.Fatalf("flip at %d: err = %v, want ErrTornRecord", i, err)
		}
	}
	// A checksum-valid frame whose payload is not a record (no LSN) fails
	// validation rather than reporting a torn tail.
	frame2 := framePayload(bson.Marshal(bson.D("k", 0)))
	if _, _, err := DecodeRecord(frame2); err == nil || err == ErrTornRecord {
		t.Fatalf("lsn-less record: err = %v, want validation error", err)
	}
	// Same for a checksum-valid frame of non-bson garbage.
	frame3 := framePayload([]byte("not a bson document"))
	if _, _, err := DecodeRecord(frame3); err == nil || err == ErrTornRecord {
		t.Fatalf("garbage payload: err = %v, want decode error", err)
	}
}

// TestPatchFrameLSN pins the fast path Append relies on: a frame encoded
// with a placeholder LSN patched to the real one must decode identically to
// a frame encoded with the real LSN directly.
func TestPatchFrameLSN(t *testing.T) {
	rec := &Record{Kind: KindBatch, DB: "db", Coll: "c", Ordered: true,
		Ops: []storage.WriteOp{storage.InsertWriteOp(testDoc(7))}}
	rec.LSN = 0
	frame := EncodeRecord(rec)
	if !patchFrameLSN(frame, 42) {
		t.Fatalf("patchFrameLSN rejected a frame produced by EncodeRecord")
	}
	got, rest, err := DecodeRecord(frame)
	if err != nil || len(rest) != 0 {
		t.Fatalf("patched frame does not decode: %v", err)
	}
	if got.LSN != 42 {
		t.Fatalf("patched LSN = %d, want 42", got.LSN)
	}
	rec.LSN = 42
	direct := EncodeRecord(rec)
	if string(direct) != string(frame) {
		t.Fatalf("patched frame differs from directly encoded frame")
	}
	// Frames without the expected layout are refused, not corrupted.
	if patchFrameLSN(framePayload([]byte("xxxxxxxxxxxxxxxxxxxxx")), 1) {
		t.Fatalf("patchFrameLSN accepted a non-record frame")
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	var want []*Record
	for i := 0; i < 10; i++ {
		rec := batchRecord("c", i)
		appendWait(t, w, rec, false)
		want = append(want, rec)
	}
	appendWait(t, w, &Record{Kind: KindClear, DB: "db", Coll: "c"}, false)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != 11 {
		t.Fatalf("replayed %d records, want 11", len(got))
	}
	for i, rec := range got {
		if rec.LSN != int64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
	if got[10].Kind != KindClear {
		t.Fatalf("last record kind = %v", got[10].Kind)
	}
	for i := 0; i < 10; i++ {
		if !got[i].Ops[0].Doc.Equal(want[i].Ops[0].Doc) {
			t.Fatalf("record %d document mismatch", i)
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncGroupCommit, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, Options{Dir: dir, Sync: policy})
			for i := 0; i < 5; i++ {
				appendWait(t, w, batchRecord("c", i), false)
			}
			// j: true must force durability even under SyncNone.
			appendWait(t, w, batchRecord("c", 99), true)
			if policy != SyncNone && w.SyncedLSN() != 6 {
				t.Fatalf("synced LSN = %d, want 6", w.SyncedLSN())
			}
			if policy == SyncNone && w.SyncedLSN() != 6 {
				t.Fatalf("journaled wait under SyncNone left synced LSN %d", w.SyncedLSN())
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			recs, err := ReadAll(dir)
			if err != nil || len(recs) != 6 {
				t.Fatalf("replayed %d records (%v), want 6", len(recs), err)
			}
		})
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	for i := 0; i < 3; i++ {
		appendWait(t, w, batchRecord("c", i), false)
	}
	w.Close()
	w2 := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	if w2.LastLSN() != 3 {
		t.Fatalf("reopened LastLSN = %d, want 3", w2.LastLSN())
	}
	if lsn := appendWait(t, w2, batchRecord("c", 3), false); lsn != 4 {
		t.Fatalf("next LSN = %d, want 4", lsn)
	}
	w2.Close()
	recs, err := ReadAll(dir)
	if err != nil || len(recs) != 4 {
		t.Fatalf("replayed %d records (%v), want 4", len(recs), err)
	}
}

func TestSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncAlways, SegmentMaxBytes: 256})
	const n = 40
	for i := 0; i < n; i++ {
		appendWait(t, w, batchRecord("c", i), false)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d", len(segs))
	}
	// Prune up to LSN 20: every fully covered segment goes, the rest stay,
	// and replay still returns a contiguous suffix.
	removed, err := w.Prune(20)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if removed == 0 {
		t.Fatalf("Prune removed nothing")
	}
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("ReadAll after prune: %v", err)
	}
	if len(recs) == 0 || recs[len(recs)-1].LSN != n {
		t.Fatalf("replay after prune lost the tail")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN != recs[i-1].LSN+1 {
			t.Fatalf("replay after prune has a gap at %d", recs[i].LSN)
		}
	}
	if recs[0].LSN > 21 {
		t.Fatalf("prune removed records beyond the cutoff: first replayed LSN %d", recs[0].LSN)
	}
	// Appends continue on the surviving active segment.
	appendWait(t, w, batchRecord("c", n), false)
	w.Close()
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	for i := 0; i < 5; i++ {
		appendWait(t, w, batchRecord("c", i), false)
	}
	w.Close()
	segs, _ := listSegments(dir)
	path := segs[len(segs)-1].path
	goodSize := fileSize(t, path)
	// Simulate a crash mid-append: half of a valid next record.
	next := EncodeRecord(&Record{LSN: 6, Kind: KindBatch, DB: "db", Coll: "c",
		Ops: []storage.WriteOp{storage.InsertWriteOp(testDoc(6))}})
	appendBytes(t, path, next[:len(next)/2])

	w2 := mustOpen(t, Options{Dir: dir, Sync: SyncAlways})
	if w2.LastLSN() != 5 {
		t.Fatalf("LastLSN after torn tail = %d, want 5", w2.LastLSN())
	}
	if got := fileSize(t, path); got != goodSize {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", got, goodSize)
	}
	// The log accepts appends again and the new record replays.
	appendWait(t, w2, batchRecord("c", 5), false)
	w2.Close()
	recs, err := ReadAll(dir)
	if err != nil || len(recs) != 6 {
		t.Fatalf("replayed %d records (%v), want 6", len(recs), err)
	}
}

func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncGroupCommit})
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				commit, err := w.Append(batchRecord("c", g*1000+i))
				if err == nil {
					err = commit.Wait(false)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if w.SyncedLSN() != writers*perWriter {
		t.Fatalf("synced LSN = %d, want %d", w.SyncedLSN(), writers*perWriter)
	}
	w.Close()
	recs, err := ReadAll(dir)
	if err != nil || len(recs) != writers*perWriter {
		t.Fatalf("replayed %d records (%v), want %d", len(recs), err, writers*perWriter)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"group", SyncGroupCommit}, {"none", SyncNone}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("fsync-maybe"); err == nil {
		t.Fatalf("unknown policy should fail")
	}
}

func TestReplayRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncAlways, SegmentMaxBytes: 256})
	for i := 0; i < 20; i++ {
		appendWait(t, w, batchRecord("c", i), false)
	}
	w.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need at least 2 segments, got %d", len(segs))
	}
	// Corrupt a record in the FIRST segment: that is not a torn tail and
	// replay must refuse rather than silently drop acknowledged history.
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replay(dir, func(*Record) error { return nil }); err == nil {
		t.Fatalf("mid-log corruption must fail replay")
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func appendBytes(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// Ensure segment names order numerically even at widths the sort -V in CI
// never sees; a plain string sort of zero-padded names must equal LSN order.
func TestSegmentNaming(t *testing.T) {
	if segmentName(1) >= segmentName(10) || segmentName(999) >= segmentName(1000) {
		t.Fatalf("segment names do not sort: %q %q", segmentName(999), segmentName(1000))
	}
	if filepath.Ext(segmentName(1)) != ".log" {
		t.Fatalf("segment suffix changed: %q", segmentName(1))
	}
}
