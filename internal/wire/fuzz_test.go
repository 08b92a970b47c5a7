package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"docstore/internal/bson"
)

// FuzzFrameDecode feeds arbitrary bytes to the request decoder, the code that
// faces the network. It must not panic, must not allocate more than a small
// multiple of its input, and whatever it accepts must re-encode to a frame
// that decodes to an equal request (compared as frames: appendFrame writes
// every exported field, so equal frames are equal requests, NaNs included).
func FuzzFrameDecode(f *testing.F) {
	doc := bson.D(bson.IDKey, 1, "k", "v", "nested", bson.D("a", bson.A(1, 2.5, nil)))
	for _, req := range []*Request{
		{Op: OpPing},
		{Op: OpInsert, DB: "db", Collection: "c", Doc: doc, Journaled: true, WriteConcern: bson.D("w", "majority")},
		{Op: OpInsertMany, DB: "db", Collection: "c", Docs: []*bson.Doc{doc, doc}},
		{Op: OpFind, DB: "db", Collection: "c", Filter: bson.D("k", bson.D("$gte", 1)), Sort: bson.D("k", -1),
			Projection: bson.D("k", 1), Hint: "k_1", Limit: 10, Skip: 2, BatchSize: 4},
		{Op: OpCount, DB: "db", Collection: "c", Filter: bson.D("k", 1)},
		{Op: OpUpdate, DB: "db", Collection: "c", Filter: bson.D("k", 1), Update: bson.D("$inc", bson.D("v", 1)), Multi: true, Upsert: true},
		{Op: OpDelete, DB: "db", Collection: "c", Filter: bson.D("k", 1)},
		{Op: OpAggregate, DB: "db", Collection: "c", Docs: []*bson.Doc{bson.D("$match", bson.D("k", 1))}},
		{Op: OpEnsureIndex, DB: "db", Collection: "c", Keys: bson.D("k", 1), Unique: true},
		{Op: OpDrop, DB: "db", Collection: "c"},
		{Op: OpListColls, DB: "db"},
		{Op: OpStats, DB: "db"},
		{Op: OpGetMore, DB: "db", CursorID: 3, BatchSize: 4, MaxTimeMS: 50},
		{Op: OpKillCursors, DB: "db", CursorID: 3},
		{Op: OpBulkWrite, DB: "db", Collection: "c", Ordered: true, Docs: []*bson.Doc{BulkInsertOp(doc), BulkDeleteOp(doc, false)}},
		{Op: OpWatch, DB: "db", Collection: "c", ResumeAfter: "token"},
		{Op: OpCurrentOp, OpName: "wire.find", MinDurationUS: 5},
		{Op: OpGetTraces, Limit: 5},
		{Op: OpGetTraces, OpName: "wire.insert", MinDurationUS: 1000, Limit: 1},
		{Op: OpCheckpoint},
		{Op: OpShardCollection, DB: "db", Collection: "c", Keys: bson.D("k", "hashed")},
	} {
		f.Add(req.appendFrame(nil))
	}
	insert := (&Request{Op: OpInsert, DB: "db", Collection: "c", Doc: doc}).appendFrame(nil)
	f.Add(insert[:len(insert)-9])                                    // truncated
	f.Add(binary.LittleEndian.AppendUint32(nil, maxFrameSize+1))     // oversized length
	f.Add(deepFrame(7 * (bson.MaxDepth + 1)))                        // nested one level too deep
	f.Add(bson.Marshal(bson.D("op", 1, "writeConcern", "majority"))) // fields of the wrong types
	twice := append(append(insert[:len(insert)-1:len(insert)-1], insert[4:len(insert)-1]...), 0)
	binary.LittleEndian.PutUint32(twice, uint32(len(twice)))
	f.Add(twice) // every field twice

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, err := readRequest(data)
		runtime.ReadMemStats(&after)
		// A two-byte element (tag, empty name) of an array decodes to a
		// 16-byte interface, and of a document to a 32-byte Field. The
		// counter is the process's, so the constant covers what the fuzzing
		// engine's own goroutines allocate meanwhile.
		if grew, most := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<16); grew > most {
			t.Fatalf("decoding %d bytes allocated %d, more than %d", len(data), grew, most)
		}
		if err != nil {
			return
		}
		second := req.appendFrame(nil)
		again, err := readRequest(second)
		if err != nil {
			t.Fatalf("decoding our own frame failed: %v", err)
		}
		if third := again.appendFrame(nil); !bytes.Equal(second, third) {
			t.Fatalf("round trip changed the request:\n first %+v\nsecond %+v", req, again)
		}
	})
}
