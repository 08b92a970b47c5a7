package wal

import (
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
)

// FuzzWALDecode hammers the record decoder with arbitrary bytes. The
// contract under fuzz: never panic, never over-read (the remainder returned
// on success is a strict suffix, so a decode loop always terminates), and
// round-trip any record that decodes successfully.
func FuzzWALDecode(f *testing.F) {
	seed := [][]byte{
		EncodeRecord(&Record{LSN: 1, Kind: KindBatch, DB: "db", Coll: "c", Ordered: true,
			Ops: []storage.WriteOp{storage.InsertWriteOp(bson.D(bson.IDKey, 1, "v", "x"))}}),
		EncodeRecord(&Record{LSN: 2, Kind: KindBatch, DB: "db", Coll: "c",
			Ops: []storage.WriteOp{
				storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D("a", 1), Update: bson.D("$inc", bson.D("a", 1)), Multi: true}),
				storage.DeleteWriteOp(bson.D("a", bson.D("$lt", 0)), true),
			}}),
		EncodeRecord(&Record{LSN: 3, Kind: KindClear, DB: "db", Coll: "c"}),
		EncodeRecord(&Record{LSN: 4, Kind: KindDropDatabase, DB: "db"}),
		EncodeRecord(&Record{LSN: 5, Kind: KindReplace, DB: "db", Coll: "c",
			Ops: storage.InsertOps([]*bson.Doc{bson.D(bson.IDKey, 1, "v", "x"), bson.D(bson.IDKey, 2)})}),
		EncodeRecord(&Record{LSN: 6, Kind: KindReplace, DB: "db", Coll: "c"}),
		// Checksum-valid frames of non-record payloads.
		framePayload(bson.Marshal(bson.D("lsn", "not a number"))),
		framePayload([]byte("garbage that is not bson")),
		{0x00}, {},
	}
	for _, s := range seed {
		f.Add(s)
	}
	// A couple of mutated seeds so the corpus starts with near-miss frames.
	broken := append([]byte(nil), seed[0]...)
	broken[len(broken)-1] ^= 0xff
	f.Add(broken)
	f.Add(seed[0][:len(seed[0])-4])

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, rest, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if rec == nil {
			t.Fatalf("nil record without error")
		}
		if len(rest) >= len(data) {
			t.Fatalf("decoder made no progress: %d of %d bytes left", len(rest), len(data))
		}
		consumed := len(data) - len(rest)
		if consumed > len(data) {
			t.Fatalf("decoder over-read: consumed %d of %d", consumed, len(data))
		}
		// A record that decoded must re-encode and decode to the same thing
		// (field-for-field; the binary form may differ when unknown fields
		// were present in the fuzzed payload).
		again, rest2, err := DecodeRecord(EncodeRecord(rec))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest2))
		}
		if again.LSN != rec.LSN || again.Kind != rec.Kind || again.DB != rec.DB ||
			again.Coll != rec.Coll || again.Ordered != rec.Ordered || len(again.Ops) != len(rec.Ops) {
			t.Fatalf("round trip changed the record: %+v vs %+v", again, rec)
		}
	})
}
