package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
)

// RecordKind discriminates what a log record describes.
type RecordKind int

// Record kinds.
const (
	// KindBatch is a batch of write operations against one collection; a
	// scalar insert/update/delete logs as a one-op batch.
	KindBatch RecordKind = iota
	// KindClear records a collection being wiped in place
	// (storage.Collection.Drop, which ReplaceContents and $out use).
	KindClear
	// KindDropCollection records a collection being removed from its
	// database, so recovery does not resurrect dropped collections.
	KindDropCollection
	// KindDropDatabase records a whole database being removed.
	KindDropDatabase
	// KindEnsureIndex records a secondary index creation (Spec, Unique), so
	// recovery rebuilds indexes — and so replayed writes see the same
	// unique-constraint enforcement the original run did.
	KindEnsureIndex
	// KindDropIndex records an index removal by name (Index).
	KindDropIndex
)

// String names the kind for diagnostics.
func (k RecordKind) String() string {
	switch k {
	case KindBatch:
		return "batch"
	case KindClear:
		return "clear"
	case KindDropCollection:
		return "dropCollection"
	case KindDropDatabase:
		return "dropDatabase"
	case KindEnsureIndex:
		return "ensureIndex"
	case KindDropIndex:
		return "dropIndex"
	default:
		return fmt.Sprintf("recordKind(%d)", int(k))
	}
}

// Record is one logical entry of the write-ahead log: a batch of operations
// against a single collection, or a structural event (clear/drop). The LSN is
// assigned by WAL.Append; records replay in LSN order.
type Record struct {
	LSN     int64
	Kind    RecordKind
	DB      string
	Coll    string
	Ordered bool
	Ops     []storage.WriteOp
	// Spec and Unique describe a KindEnsureIndex record; Index names the
	// victim of a KindDropIndex record.
	Spec   *bson.Doc
	Unique bool
	Index  string
}

// Clone deep-copies the record so it can be applied to multiple servers
// without sharing document storage (inserted documents are stored by
// reference).
func (r *Record) Clone() *Record {
	out := &Record{
		LSN: r.LSN, Kind: r.Kind, DB: r.DB, Coll: r.Coll, Ordered: r.Ordered,
		Spec: r.Spec.Clone(), Unique: r.Unique, Index: r.Index,
	}
	if r.Ops != nil {
		out.Ops = make([]storage.WriteOp, len(r.Ops))
		for i, op := range r.Ops {
			out.Ops[i] = storage.WriteOp{
				Kind: op.Kind,
				Doc:  op.Doc.Clone(),
				Update: query.UpdateSpec{
					Query:  op.Update.Query.Clone(),
					Update: op.Update.Update.Clone(),
					Upsert: op.Update.Upsert,
					Multi:  op.Update.Multi,
				},
				Filter: op.Filter.Clone(),
				Multi:  op.Multi,
			}
		}
	}
	return out
}

// Framing: every record is stored as
//
//	[4B little-endian payload length][4B CRC32C of payload][payload]
//
// where the payload is the record rendered as a binary bson document. The
// CRC lets recovery distinguish a torn tail (partial write at the moment of
// a crash) from a complete record; the length prefix bounds the read.

const (
	frameHeaderSize = 8
	// MaxRecordSize bounds a single record payload. A batch record carries
	// whole documents, so it can exceed the single-document limit, but a
	// length prefix beyond this is treated as corruption rather than an
	// instruction to allocate gigabytes.
	MaxRecordSize = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTornRecord reports an incomplete or checksum-failing record at the end
// of a segment: the signature of a crash mid-append. Recovery truncates the
// segment at the first torn record and continues.
var ErrTornRecord = errors.New("wal: torn record")

// EncodeRecord renders the record as a framed byte slice ready to append.
func EncodeRecord(r *Record) []byte {
	return framePayload(bson.Marshal(encodeRecordDoc(r)))
}

// The "lsn" field leads the record document, so its int64 value sits at a
// fixed offset inside the payload: document length (4), the int64 tag (1)
// and the "lsn\x00" key (4). Append exploits this to marshal a record —
// the expensive part for a big batch — outside the append lock and patch
// the LSN in once the append is ordered.
const lsnValueOffset = 4 + 1 + 4

// lsnTagByte is whatever tag the bson encoder emits for a leading int64
// field; patchFrameLSN verifies it so an encoder change degrades to a
// re-encode instead of corrupting frames.
var lsnTagByte = bson.Marshal(bson.D("lsn", int64(1)))[4]

// hasLSNLayout reports whether a payload starts with the int64 "lsn" field
// at the fixed offset.
func hasLSNLayout(payload []byte) bool {
	return len(payload) >= lsnValueOffset+8 && payload[4] == lsnTagByte && string(payload[5:9]) == "lsn\x00"
}

// patchFrameLSN rewrites the LSN of an encoded frame in place and fixes the
// checksum, reporting whether the frame had the expected layout.
func patchFrameLSN(frame []byte, lsn int64) bool {
	if len(frame) < frameHeaderSize {
		return false
	}
	payload := frame[frameHeaderSize:]
	if !hasLSNLayout(payload) {
		return false
	}
	binary.LittleEndian.PutUint64(payload[lsnValueOffset:], uint64(lsn))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return true
}

// splitFrame validates the frame at the front of data — length prefix in
// range, payload complete, checksum matching — and returns its payload and
// the bytes after it. ok is false for a torn frame.
func splitFrame(data []byte) (payload, rest []byte, ok bool) {
	if len(data) < frameHeaderSize {
		return nil, nil, false
	}
	payloadLen := int(binary.LittleEndian.Uint32(data[0:4]))
	if payloadLen < 5 || payloadLen > MaxRecordSize || len(data) < frameHeaderSize+payloadLen {
		return nil, nil, false
	}
	payload = data[frameHeaderSize : frameHeaderSize+payloadLen]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, nil, false
	}
	return payload, data[frameHeaderSize+payloadLen:], true
}

// frameLSN reads the LSN of the intact frame at the front of data without
// decoding its payload, returning the bytes after the frame. The payload is
// decoded only when it lacks the fixed LSN layout (see patchFrameLSN's
// fallback), so a frame either scan accepts carries the same LSN.
func frameLSN(data []byte) (lsn int64, rest []byte, ok bool) {
	payload, rest, ok := splitFrame(data)
	if !ok {
		return 0, nil, false
	}
	if hasLSNLayout(payload) {
		lsn = int64(binary.LittleEndian.Uint64(payload[lsnValueOffset:]))
		return lsn, rest, lsn > 0
	}
	rec, _, err := DecodeRecord(data)
	if err != nil {
		return 0, nil, false
	}
	return rec.LSN, rest, true
}

// framePayload wraps raw payload bytes in the length+checksum frame.
func framePayload(payload []byte) []byte {
	frame := make([]byte, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeaderSize:], payload)
	return frame
}

// DecodeRecord decodes one framed record from the front of data, returning
// the record and the remaining bytes. An incomplete or checksum-failing
// frame returns ErrTornRecord; a frame that decodes but does not describe a
// valid record returns a descriptive error. It never reads past the framed
// length and never panics on corrupt input (FuzzWALDecode enforces this).
func DecodeRecord(data []byte) (*Record, []byte, error) {
	payload, rest, ok := splitFrame(data)
	if !ok {
		return nil, nil, ErrTornRecord
	}
	doc, err := bson.Unmarshal(payload)
	if err != nil {
		// The checksum matched, so the bytes are what was written; a payload
		// that is not a document is a writer bug or deliberate corruption,
		// not a torn tail.
		return nil, nil, fmt.Errorf("wal: record payload: %w", err)
	}
	rec, err := decodeRecordDoc(doc)
	if err != nil {
		return nil, nil, err
	}
	return rec, rest, nil
}

func encodeRecordDoc(r *Record) *bson.Doc {
	d := bson.NewDoc(6)
	d.Set("lsn", r.LSN)
	d.Set("k", int(r.Kind))
	d.Set("db", r.DB)
	d.Set("coll", r.Coll)
	if r.Ordered {
		d.Set("ord", true)
	}
	if r.Ops != nil {
		arr := make([]any, len(r.Ops))
		for i := range r.Ops {
			arr[i] = encodeOpDoc(&r.Ops[i])
		}
		d.Set("ops", arr)
	}
	if r.Spec != nil {
		d.Set("spec", r.Spec)
	}
	if r.Unique {
		d.Set("unique", true)
	}
	if r.Index != "" {
		d.Set("index", r.Index)
	}
	return d
}

func encodeOpDoc(op *storage.WriteOp) *bson.Doc {
	d := bson.NewDoc(4)
	d.Set("k", int(op.Kind))
	switch op.Kind {
	case storage.InsertOp:
		if op.Doc != nil {
			d.Set("d", op.Doc)
		}
	case storage.UpdateOp:
		if op.Update.Query != nil {
			d.Set("q", op.Update.Query)
		}
		if op.Update.Update != nil {
			d.Set("u", op.Update.Update)
		}
		if op.Update.Multi {
			d.Set("multi", true)
		}
		if op.Update.Upsert {
			d.Set("upsert", true)
		}
	case storage.DeleteOp:
		if op.Filter != nil {
			d.Set("q", op.Filter)
		}
		if op.Multi {
			d.Set("multi", true)
		}
	}
	return d
}

func decodeRecordDoc(d *bson.Doc) (*Record, error) {
	r := &Record{}
	lsn, ok := bson.AsInt(d.GetOr("lsn", nil))
	if !ok || lsn <= 0 {
		return nil, fmt.Errorf("wal: record has no valid lsn")
	}
	r.LSN = lsn
	kind, _ := bson.AsInt(d.GetOr("k", int64(0)))
	if kind < int64(KindBatch) || kind > int64(KindDropIndex) {
		return nil, fmt.Errorf("wal: unknown record kind %d", kind)
	}
	r.Kind = RecordKind(kind)
	r.DB, _ = d.GetOr("db", "").(string)
	r.Coll, _ = d.GetOr("coll", "").(string)
	r.Ordered = bson.Truthy(d.GetOr("ord", false))
	r.Spec, _ = d.GetOr("spec", nil).(*bson.Doc)
	r.Unique = bson.Truthy(d.GetOr("unique", false))
	r.Index, _ = d.GetOr("index", "").(string)
	if v, ok := d.Get("ops"); ok {
		arr, isArr := v.([]any)
		if !isArr {
			return nil, fmt.Errorf("wal: record ops is not an array")
		}
		r.Ops = make([]storage.WriteOp, 0, len(arr))
		for i, e := range arr {
			opDoc, isDoc := e.(*bson.Doc)
			if !isDoc {
				return nil, fmt.Errorf("wal: record op %d is not a document", i)
			}
			op, err := decodeOpDoc(opDoc)
			if err != nil {
				return nil, fmt.Errorf("wal: record op %d: %w", i, err)
			}
			r.Ops = append(r.Ops, op)
		}
	}
	return r, nil
}

func decodeOpDoc(d *bson.Doc) (storage.WriteOp, error) {
	kind, _ := bson.AsInt(d.GetOr("k", int64(-1)))
	switch storage.WriteOpKind(kind) {
	case storage.InsertOp:
		doc, _ := d.GetOr("d", nil).(*bson.Doc)
		return storage.InsertWriteOp(doc), nil
	case storage.UpdateOp:
		q, _ := d.GetOr("q", nil).(*bson.Doc)
		u, _ := d.GetOr("u", nil).(*bson.Doc)
		return storage.UpdateWriteOp(query.UpdateSpec{
			Query:  q,
			Update: u,
			Multi:  bson.Truthy(d.GetOr("multi", false)),
			Upsert: bson.Truthy(d.GetOr("upsert", false)),
		}), nil
	case storage.DeleteOp:
		q, _ := d.GetOr("q", nil).(*bson.Doc)
		return storage.DeleteWriteOp(q, bson.Truthy(d.GetOr("multi", false))), nil
	default:
		return storage.WriteOp{}, fmt.Errorf("unknown write op kind %d", kind)
	}
}
