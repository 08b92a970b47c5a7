package wal

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/storage"
)

// TestWALTortureCrashTail simulates a crash mid-write at randomized
// positions: a workload of acknowledged (synced) appends is followed by a
// random mutilation of the bytes past the acknowledgement point — truncation
// (the disk never saw the rest) or corruption (a partial/garbled sector).
// Every acknowledged record must survive replay byte-for-byte, no torn or
// garbled record may be surfaced, and the log must accept appends again
// after recovery.
//
// Each round uses a fresh seeded RNG stream so failures reproduce; the
// failing round's parameters are in the test log.
func TestWALTortureCrashTail(t *testing.T) {
	const rounds = 25
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xD15C + int64(round)))
			dir := t.TempDir()
			// Small segments so later rounds cross rotation boundaries.
			segMax := int64(512 + rng.Intn(2048))
			w := mustOpen(t, Options{Dir: dir, Sync: SyncAlways, SegmentMaxBytes: segMax})

			// Acknowledged workload: every append is synced before the next.
			acked := rng.Intn(30) + 1
			var wantDocs []*bson.Doc
			for i := 0; i < acked; i++ {
				doc := bson.D(bson.IDKey, i, "payload", randomString(rng, 1+rng.Intn(60)))
				wantDocs = append(wantDocs, doc)
				appendWait(t, w, &Record{
					Kind: KindBatch, DB: "db", Coll: "c", Ordered: true,
					Ops: []storage.WriteOp{storage.InsertWriteOp(doc)},
				}, true)
			}
			// The crash point: everything up to here is acknowledged, so the
			// active segment's current size is the durability boundary.
			segs, err := listSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			tail := segs[len(segs)-1].path
			ackedSize := fileSize(t, tail)
			w.Close()

			// Un-acknowledged in-flight bytes: a prefix of one or more valid
			// future records, cut off or garbled at a random offset.
			var inflight []byte
			nextLSN := int64(acked + 1)
			for n := rng.Intn(3); n >= 0; n-- {
				inflight = append(inflight, EncodeRecord(&Record{
					LSN: nextLSN, Kind: KindBatch, DB: "db", Coll: "c",
					Ops: []storage.WriteOp{storage.InsertWriteOp(bson.D(bson.IDKey, 1000+nextLSN))},
				})...)
				nextLSN++
			}
			switch rng.Intn(3) {
			case 0: // torn: only a prefix reached the disk
				inflight = inflight[:rng.Intn(len(inflight)+1)]
			case 1: // corrupt: full length but garbled bytes
				for i := 0; i < 1+rng.Intn(4); i++ {
					inflight[rng.Intn(len(inflight))] ^= byte(1 + rng.Intn(255))
				}
			case 2: // torn AND garbled
				inflight = inflight[:rng.Intn(len(inflight)+1)]
				if len(inflight) > 0 {
					inflight[rng.Intn(len(inflight))] ^= 0x5a
				}
			}
			appendBytes(t, tail, inflight)

			// Recovery: open (truncates the tail) and replay.
			w2 := mustOpen(t, Options{Dir: dir, Sync: SyncAlways, SegmentMaxBytes: segMax})
			recs, err := ReadAll(dir)
			if err != nil {
				t.Fatalf("replay after crash: %v", err)
			}
			if len(recs) < acked {
				t.Fatalf("replay lost acknowledged records: %d < %d (acked size %d, inflight %d bytes)",
					len(recs), acked, ackedSize, len(inflight))
			}
			for i := 0; i < acked; i++ {
				if recs[i].LSN != int64(i+1) {
					t.Fatalf("record %d replayed with LSN %d", i, recs[i].LSN)
				}
				if !recs[i].Ops[0].Doc.Equal(wantDocs[i]) {
					t.Fatalf("acknowledged record %d replayed with different content", i)
				}
			}
			// Anything beyond the acked set must be a complete, intact
			// in-flight record (never a torn or garbled one).
			for i := acked; i < len(recs); i++ {
				if recs[i].LSN != int64(i+1) || len(recs[i].Ops) != 1 || recs[i].Ops[0].Doc == nil {
					t.Fatalf("recovered in-flight record %d is malformed", i)
				}
			}
			// The log is appendable again and the new write survives another
			// reopen.
			lsn := appendWait(t, w2, &Record{
				Kind: KindBatch, DB: "db", Coll: "c",
				Ops: []storage.WriteOp{storage.InsertWriteOp(bson.D(bson.IDKey, "post-crash"))},
			}, true)
			w2.Close()
			recs2, err := ReadAll(dir)
			if err != nil {
				t.Fatalf("replay after recovery append: %v", err)
			}
			if recs2[len(recs2)-1].LSN != lsn {
				t.Fatalf("post-crash append did not replay")
			}
		})
	}
}

// TestWALTortureHeaderCrash covers a crash during segment creation: a
// partial or missing header on the newest segment must not lose the closed
// segments before it.
func TestWALTortureHeaderCrash(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncAlways, SegmentMaxBytes: 256})
	const n = 10
	for i := 0; i < n; i++ {
		appendWait(t, w, batchRecord("c", i), false)
	}
	w.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need rotation for this test")
	}
	// Simulate: rotation created the next segment (named for the next LSN,
	// as rotateLocked does) but died mid-header.
	next := int64(n + 1)
	if next <= segs[len(segs)-1].firstLSN {
		t.Fatalf("unexpected segment layout: %+v", segs)
	}
	partial := encodeSegmentHeader()[:3]
	if err := os.WriteFile(dir+"/"+segmentName(next), partial, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := mustOpen(t, Options{Dir: dir, Sync: SyncAlways, SegmentMaxBytes: 256})
	defer w2.Close()
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
}

func randomString(rng *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// TestWALTortureFrameScanMatchesDecodingScan pins Open's frame-only tail scan
// to the decoding scan it replaced: for a log cut at every byte of its last
// frame, and for that frame with any one byte garbled, Open must truncate to
// the same byte count and resume at the same LSN that fully decoding every
// record finds.
func TestWALTortureFrameScanMatchesDecodingScan(t *testing.T) {
	src := t.TempDir()
	w := mustOpen(t, Options{Dir: src, Sync: SyncNone})
	for i := 0; i < 4; i++ {
		appendWait(t, w, batchRecord("c", i), false)
	}
	w.Close()
	segs, _ := listSegments(src)
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %d", len(segs))
	}
	whole, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := len(EncodeRecord(batchRecord("c", 3)))
	frameStart := len(whole) - lastFrame

	check := func(name string, data []byte) {
		dir := t.TempDir()
		path := dir + "/" + segmentName(1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wantBytes, wantLSN, wantTorn, err := readSegmentRecords(path, func(*Record) error { return nil })
		if err != nil {
			t.Fatalf("%s: decoding scan: %v", name, err)
		}
		gotBytes, gotLSN, gotTorn, err := scanSegmentFrames(path)
		if err != nil {
			t.Fatalf("%s: frame scan: %v", name, err)
		}
		if gotBytes != wantBytes || gotLSN != wantLSN || gotTorn != wantTorn {
			t.Fatalf("%s: frame scan = (%d bytes, lsn %d, torn %v), decoding scan = (%d, %d, %v)",
				name, gotBytes, gotLSN, gotTorn, wantBytes, wantLSN, wantTorn)
		}
		w := mustOpen(t, Options{Dir: dir, Sync: SyncNone})
		defer w.Close()
		if w.LastLSN() != wantLSN {
			t.Fatalf("%s: Open resumed at LSN %d, want %d", name, w.LastLSN(), wantLSN)
		}
		if got := fileSize(t, path); got != wantBytes {
			t.Fatalf("%s: Open left %d bytes, want %d", name, got, wantBytes)
		}
	}
	for cut := frameStart; cut <= len(whole); cut++ {
		check(fmt.Sprintf("cut=%d", cut), whole[:cut])
	}
	for pos := frameStart; pos < len(whole); pos++ {
		garbled := append([]byte(nil), whole...)
		garbled[pos] ^= 0x5a
		check(fmt.Sprintf("garbled=%d", pos), garbled)
	}
}
