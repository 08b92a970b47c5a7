// Package wire implements a minimal client/server wire protocol for the
// document store so it can run as a separate process (cmd/docstored) and be
// queried remotely, the way the thesis' application server talks to mongod
// over the network.
//
// A connection carries frames, a request and then its reply, one at a time
// (the client sends no second request before the first reply). A frame is one
// document in internal/bson's binary encoding — the encoding of the
// write-ahead log and the snapshots — and the document's own leading int32
// length, little-endian and counting itself, is the frame header:
//
//	[int32 length][elements...][0x00]
//
// The reader takes the four bytes, checks 5 <= length <= maxFrameSize
// (48 MB) and reads the rest into a buffer the connection reuses; the writer
// sends a frame with one Write. The elements of a request frame are the
// fields of Request under the names its codec gives them — what
// docstore-shell reads as JSON, in binary:
//
//	{op: "find", db: "Dataset_1GB", coll: "store_sales",
//	 filter: {...}, sort: {...}, limit: 10}
//
// and those of a reply frame the fields of Response:
//
//	{ok: true, docs: [...], n: 3}
//	{ok: false, error: "..."}
//
// Both codecs append to and read from the frame directly: there is no
// document for the envelope, and the documents of a reply are appended from
// the stored documents as they are. Values keep their types — an int64 stays
// an int64 and a double a double, an ObjectID, a null, an empty array and an
// empty document arrive as what they were — except that a date arrives at
// millisecond precision, as it does from the log and a snapshot.
//
// A frame nests at most bson.MaxDepth levels, as everything the decoders
// read. What a client may have written is held lower, to
// bson.MaxDocumentDepth, by the storage engine (storage.ErrDocumentTooDeep),
// so that a stored document still decodes inside a reply; only an aggregation
// can build a reply the client then refuses.
//
// The server closes a connection, and that connection only, when a frame's
// length is outside the bounds, when the frame ends early, or when its bytes
// do not decode as a request: an element that is malformed or too deep,
// wanted or not, or a field of Request given twice. It sends a last reply
// naming the reason where there is someone to read it and counts the event
// under op="other" in docstore_wire_requests_total and
// docstore_wire_request_errors_total.
//
// A reply holds as many of its documents as fit the frame, at least one; the
// rest stay on a server-side cursor whose id the reply carries, as if the
// request had asked for a batch of that size, and the Client's helpers fetch
// them with getMore. A reply that cannot fit whatever is left out (a
// bulkWrite result with millions of write errors) is replaced by an error
// reply, and the client refuses to send a request over maxFrameSize.
// Extended JSON is spoken at one edge only, docstore-shell's standard input
// and output.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"docstore/internal/bson"
	"docstore/internal/index"
	"docstore/internal/trace"
)

const (
	// maxFrameSize is the largest frame either end sends or accepts (the
	// real server's maxMessageSizeBytes): room for a batch of documents of
	// bson.MaxDocumentSize, and the bound on what one length prefix can make
	// a reader buffer.
	maxFrameSize = 48 << 20
	// replyTailSize is the room a reply frame keeps behind its documents
	// for the two fields written after them, n and cursorId.
	replyTailSize = 64
	// frameBufferKeep is the largest buffer a connection keeps between
	// frames; one grown past it by a bulk load is dropped after use.
	frameBufferKeep = 1 << 20
)

// errFrameLength reports a length prefix outside [5, maxFrameSize].
var errFrameLength = errors.New("wire: frame length out of bounds")

// readFrame reads one frame from r into buf, which it grows as needed, and
// returns it. The buffer grows with the bytes that have arrived, not with
// what the length prefix announces: at most doubling per read, so a peer
// must send a large frame to make the reader hold one. io.EOF means r ended
// between frames, io.ErrUnexpectedEOF inside one.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n < 5 || n > maxFrameSize {
		return buf, fmt.Errorf("%w: %d", errFrameLength, n)
	}
	for len(buf) < n {
		have, end := len(buf), n
		if n > cap(buf) {
			end = min(n, max(2*have, 4096))
		}
		buf = slices.Grow(buf, end-have)[:end]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// recycle returns buf emptied for the connection's next frame, or nil when
// it has grown past frameBufferKeep.
func recycle(buf []byte) []byte {
	if cap(buf) > frameBufferKeep {
		return nil
	}
	return buf[:0]
}

// HintString normalizes a request's "hint" value to an index name. Strings
// pass through; a key-specification document ({"g": 1}, the form real
// drivers send) maps to its conventional index name. Anything else renders
// to a string that names no index, so the server rejects it with its
// unknown-index error instead of silently ignoring the hint.
func HintString(v any) string {
	switch h := v.(type) {
	case string:
		return h
	case *bson.Doc:
		if spec, err := index.ParseSpec(h); err == nil {
			return spec.Name()
		}
		return h.ToJSON()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Op names understood by the server.
const (
	OpPing        = "ping"
	OpInsert      = "insert"
	OpInsertMany  = "insertMany"
	OpFind        = "find"
	OpCount       = "count"
	OpUpdate      = "update"
	OpDelete      = "delete"
	OpAggregate   = "aggregate"
	OpEnsureIndex = "ensureIndex"
	OpDrop        = "drop"
	OpListColls   = "listCollections"
	OpStats       = "stats"
	// OpGetMore pulls the next batch from a server-side cursor opened by a
	// find or aggregate request that carried a batchSize.
	OpGetMore = "getMore"
	// OpKillCursors closes a server-side cursor before exhaustion.
	OpKillCursors = "killCursors"
	// OpBulkWrite executes a mixed batch of inserts/updates/deletes in one
	// round trip. Ops travel in "docs" (one document per op, built by
	// BulkInsertOp/BulkUpdateOp/BulkDeleteOp); "ordered" stops the batch at
	// the first failure. The response carries a "result" document with the
	// counters, the aligned insertedIds array, the write-error array and —
	// when the batch could not be journaled or made durable — a
	// writeConcernError string that {j: true} callers must treat as
	// failure.
	OpBulkWrite = "bulkWrite"
	// OpWatch opens a change stream over db/coll (coll empty = whole
	// database): a tailable server-side cursor getMore drains. The request
	// may carry a $match pipeline in "docs", a "resumeAfter" token, and a
	// "batchSize"; the response holds the immediately-available first batch,
	// the cursor id, and the post-batch "resumeToken". getMore on a watch
	// cursor waits up to "maxTimeMS" for the first event (awaitData) and
	// never exhausts the cursor; killCursors tears the stream down.
	OpWatch = "watch"
	// OpCurrentOp lists the requests in flight right now as span-tree
	// documents (oldest first), with elapsed-so-far durations — the
	// currentOp analogue. Requires the server to run with tracing enabled
	// (docstored -trace-sample); without a tracer it returns an empty list.
	// "limit" caps the listing. Introspection requests themselves are not
	// traced, so the listing never contains the currentOp that produced it.
	OpCurrentOp = "currentOp"
	// OpGetTraces returns completed span trees from the tracer's bounded
	// retention ring, most recent first: requests that were sampled at start
	// plus every request slower than the server's slow threshold. "limit"
	// caps the count (0 returns the whole ring).
	//
	// Both currentOp and getTraces accept filters: "opName" keeps only
	// traces whose root span name starts with the prefix ("wire.insert", or
	// just "wire.ins"), "minDurationUS" keeps only traces at least that many
	// microseconds long, and "limit" caps the result after filtering.
	OpGetTraces = "getTraces"
	// OpCheckpoint takes a durable checkpoint. Against a stand-alone server
	// it captures and streams one checkpoint; against a query router (a
	// docstored running with -shards) it takes a cluster-consistent
	// checkpoint: every shard is captured under one simultaneous write hold,
	// so no restored shard is ever ahead of another. The response's "result"
	// document carries the per-target LSNs and collection counts.
	OpCheckpoint = "checkpoint"
	// OpShardCollection declares a collection sharded on a key
	// specification ("keys", like ensureIndex) so the router hash-partitions
	// it. Only meaningful against a router; a stand-alone server rejects it.
	OpShardCollection = "shardCollection"
)

// Request is one client request; on the wire, the elements of one frame.
type Request struct {
	Op         string
	DB         string
	Collection string
	Doc        *bson.Doc   // insert
	Docs       []*bson.Doc // insertMany, aggregate stages
	Filter     *bson.Doc
	Update     *bson.Doc
	Sort       *bson.Doc
	Projection *bson.Doc
	Keys       *bson.Doc // ensureIndex specification
	// Hint forces the named index on a find. A hint naming no index fails
	// the request with the storage engine's unknown-index error instead of
	// silently falling back to a collection scan.
	Hint  string
	Limit int
	Skip  int
	// BatchSize > 0 turns a find/aggregate into a cursor request: the
	// response carries the first batch plus a CursorID to getMore against.
	// It also sets the batch size of a getMore.
	BatchSize int
	// CursorID identifies the server-side cursor for getMore/killCursors.
	CursorID int64
	Multi    bool
	Upsert   bool
	Unique   bool
	// Ordered makes a bulkWrite stop at its first failing op.
	Ordered bool
	// Journaled is the writeConcern {j: true} flag: the write is
	// acknowledged only after its write-ahead-log record is fsynced. It
	// applies to insert, insertMany, update, delete and bulkWrite, and is a
	// no-op against a server running without a WAL (-data-dir unset).
	Journaled bool
	// WriteConcern is the full acknowledgement contract of a write request:
	// {w: 1|N|"majority", j: bool, wtimeout: ms}. It applies to insert,
	// insertMany, update, delete and bulkWrite. The server validates it with
	// storage.ParseWriteConcern — malformed concerns fail the request rather
	// than silently weakening it — and w > 1 is refused by a standalone
	// server (no replica set attached). Nil uses the server's default.
	WriteConcern *bson.Doc
	// invalidWC records that the wire carried a "writeConcern" that was not a
	// document. The frame is well formed, so the connection stays open and
	// Handle rejects the request.
	invalidWC bool
	// ResumeAfter is a watch request's resume token: the stream replays
	// history strictly after it before tailing live.
	ResumeAfter string
	// MaxTimeMS bounds how long a getMore on a change-stream cursor waits
	// for the first event before returning an empty batch (awaitData).
	// Zero uses the server's default wait.
	MaxTimeMS int
	// OpName filters currentOp/getTraces to traces whose root span name
	// starts with this prefix ("wire.insert"; "wire.ins" also matches).
	OpName string
	// MinDurationUS filters currentOp/getTraces to traces at least this
	// many microseconds long (elapsed-so-far for in-flight ops).
	MinDurationUS int64
	// span is the request's root trace span, attached server-side by Handle
	// when tracing is on. It never travels on the wire.
	span *trace.Span
}

// The codecs leave a field at its zero value out of the frame.

func appendStr(buf []byte, key, s string) []byte {
	if s == "" {
		return buf
	}
	return bson.AppendString(buf, key, s)
}

func appendInt(buf []byte, key string, n int64) []byte {
	if n == 0 {
		return buf
	}
	return bson.AppendInt64(buf, key, n)
}

func appendFlag(buf []byte, key string, set bool) []byte {
	if !set {
		return buf
	}
	return bson.AppendValue(buf, key, true)
}

func appendDoc(buf []byte, key string, d *bson.Doc) []byte {
	if d == nil {
		return buf
	}
	return bson.AppendValue(buf, key, d)
}

func appendDocs(buf []byte, key string, docs []*bson.Doc) []byte {
	if docs == nil {
		return buf
	}
	buf, _ = bson.AppendDocs(buf, key, docs, math.MaxInt)
	return buf
}

// appendFrame appends the request to buf as one frame.
func (r *Request) appendFrame(buf []byte) []byte {
	buf, start := bson.BeginDoc(buf)
	buf = bson.AppendString(buf, "op", r.Op)
	buf = appendStr(buf, "db", r.DB)
	buf = appendStr(buf, "coll", r.Collection)
	buf = appendDoc(buf, "doc", r.Doc)
	buf = appendDocs(buf, "docs", r.Docs)
	buf = appendDoc(buf, "filter", r.Filter)
	buf = appendDoc(buf, "update", r.Update)
	buf = appendDoc(buf, "sort", r.Sort)
	buf = appendDoc(buf, "projection", r.Projection)
	buf = appendDoc(buf, "keys", r.Keys)
	buf = appendStr(buf, "hint", r.Hint)
	buf = appendInt(buf, "limit", int64(r.Limit))
	buf = appendInt(buf, "skip", int64(r.Skip))
	buf = appendInt(buf, "batchSize", int64(r.BatchSize))
	buf = appendInt(buf, "cursorId", r.CursorID)
	buf = appendFlag(buf, "multi", r.Multi)
	buf = appendFlag(buf, "upsert", r.Upsert)
	buf = appendFlag(buf, "unique", r.Unique)
	buf = appendFlag(buf, "ordered", r.Ordered)
	buf = appendFlag(buf, "j", r.Journaled)
	buf = appendDoc(buf, "writeConcern", r.WriteConcern)
	buf = appendStr(buf, "resumeAfter", r.ResumeAfter)
	buf = appendInt(buf, "maxTimeMS", int64(r.MaxTimeMS))
	buf = appendStr(buf, "opName", r.OpName)
	buf = appendInt(buf, "minDurationUS", r.MinDurationUS)
	return bson.EndDoc(buf, start)
}

// fieldReader reads the elements of a frame as the types the codecs want. An
// element of another type reads as the zero value, as a field left out does,
// but every element is decoded, wanted or not, so that a frame is refused for
// what is wrong anywhere in it; the reader keeps the first error for the end
// of the frame.
type fieldReader struct {
	err error
	// The names of the codec's fields read so far; each comes once, and
	// neither codec has this many.
	seen [32][]byte
	n    int
}

func (f *fieldReader) keep(err error) {
	if f.err == nil {
		f.err = err
	}
}

// once refuses a frame that gives the field named key a second time: which
// of the two values the sender meant is not the codec's to choose.
func (f *fieldReader) once(key []byte) {
	for _, name := range f.seen[:f.n] {
		if bytes.Equal(name, key) {
			f.keep(fmt.Errorf("wire: field %q given twice", key))
			return
		}
	}
	f.seen[f.n] = key
	f.n++
}

func (f *fieldReader) value(e bson.Element) any {
	v, err := e.Value()
	f.keep(err)
	return v
}

func (f *fieldReader) str(e bson.Element) string {
	s, ok := e.Str()
	if !ok {
		f.value(e)
	}
	return s
}

func (f *fieldReader) int(e bson.Element) int64 {
	n, _ := bson.AsInt(f.value(e))
	return n
}

func (f *fieldReader) flag(e bson.Element) bool { return bson.Truthy(f.value(e)) }

func (f *fieldReader) doc(e bson.Element) *bson.Doc {
	d, _ := f.value(e).(*bson.Doc)
	return d
}

func (f *fieldReader) docs(e bson.Element) []*bson.Doc {
	docs, err := e.Docs()
	f.keep(err)
	return docs
}

// DecodeRequest reads a request written as a document under the protocol's
// field names, as the server reads a request frame. A writeConcern that is
// not a document is refused here, since the frame the request encodes to
// would leave it out.
func DecodeRequest(d *bson.Doc) (*Request, error) {
	r, err := readRequest(bson.Marshal(d))
	if err == nil && r.invalidWC {
		err = errors.New("invalid writeConcern: must be a document")
	}
	return r, err
}

// readRequest decodes a request frame.
func readRequest(frame []byte) (*Request, error) {
	it, err := bson.ReadElements(frame)
	if err != nil {
		return nil, err
	}
	r := &Request{}
	var f fieldReader
	for it.More() {
		e, err := it.Next()
		if err != nil {
			return nil, err
		}
		known := true
		switch string(e.Key) {
		case "op":
			r.Op = f.str(e)
		case "db":
			r.DB = f.str(e)
		case "coll":
			r.Collection = f.str(e)
		case "doc":
			r.Doc = f.doc(e)
		case "docs":
			r.Docs = f.docs(e)
		case "filter":
			r.Filter = f.doc(e)
		case "update":
			r.Update = f.doc(e)
		case "sort":
			r.Sort = f.doc(e)
		case "projection":
			r.Projection = f.doc(e)
		case "keys":
			r.Keys = f.doc(e)
		case "hint":
			r.Hint = HintString(f.value(e))
		case "limit":
			r.Limit = int(f.int(e))
		case "skip":
			r.Skip = int(f.int(e))
		case "batchSize":
			r.BatchSize = int(f.int(e))
		case "cursorId":
			r.CursorID = f.int(e)
		case "multi":
			r.Multi = f.flag(e)
		case "upsert":
			r.Upsert = f.flag(e)
		case "unique":
			r.Unique = f.flag(e)
		case "ordered":
			r.Ordered = f.flag(e)
		case "j":
			r.Journaled = f.flag(e)
		case "writeConcern":
			r.WriteConcern = f.doc(e)
			r.invalidWC = r.WriteConcern == nil
		case "resumeAfter":
			r.ResumeAfter = f.str(e)
		case "maxTimeMS":
			r.MaxTimeMS = int(f.int(e))
		case "opName":
			r.OpName = f.str(e)
		case "minDurationUS":
			r.MinDurationUS = f.int(e)
		default:
			known = false
			f.value(e)
		}
		if known {
			f.once(e.Key)
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return r, nil
}

// Response is the server's reply.
type Response struct {
	OK    bool
	Error string
	Docs  []*bson.Doc
	N     int64
	// CursorID is non-zero when a server-side cursor remains open: pass it
	// to getMore for the next batch. Zero means the result is complete.
	CursorID int64
	// Result carries the bulkWrite outcome document (counters, insertedIds,
	// writeErrors). Per-op write errors are data, not transport errors, so
	// they ride inside an OK response.
	Result *bson.Doc
	// ResumeToken is the post-batch resume token of a change-stream reply:
	// resuming from it continues exactly after the last event of this
	// batch, even when the batch is empty.
	ResumeToken string
}

// appendFrame appends the reply to buf as one frame, its documents encoded
// from the *bson.Docs the store returned. With a spill, the frame stays
// within maxFrameSize: the documents that would take it past that are handed
// to spill, which keeps them on a cursor and returns its id, and the frame
// says so in n and cursorId. A change-stream batch is never cut — its resume
// token names its last event — and is bounded where it is drained instead.
func (r *Response) appendFrame(buf []byte, spill func(rest []*bson.Doc) int64) []byte {
	buf, start := bson.BeginDoc(buf)
	buf = bson.AppendValue(buf, "ok", r.OK)
	buf = appendStr(buf, "error", r.Error)
	buf = appendDoc(buf, "result", r.Result)
	buf = appendStr(buf, "resumeToken", r.ResumeToken)
	n, cursorID := r.N, r.CursorID
	if r.Docs != nil {
		limit := math.MaxInt
		if spill != nil && r.ResumeToken == "" {
			limit = start + maxFrameSize - replyTailSize
		}
		var sent int
		if buf, sent = bson.AppendDocs(buf, "docs", r.Docs, limit); sent < len(r.Docs) {
			n, cursorID = int64(sent), spill(r.Docs[sent:])
		}
	}
	buf = bson.AppendInt64(buf, "n", n)
	buf = appendInt(buf, "cursorId", cursorID)
	return bson.EndDoc(buf, start)
}

// readResponse decodes a reply frame.
func readResponse(frame []byte) (*Response, error) {
	it, err := bson.ReadElements(frame)
	if err != nil {
		return nil, err
	}
	r := &Response{}
	var f fieldReader
	for it.More() {
		e, err := it.Next()
		if err != nil {
			return nil, err
		}
		known := true
		switch string(e.Key) {
		case "ok":
			r.OK = f.flag(e)
		case "error":
			r.Error = f.str(e)
		case "docs":
			r.Docs = f.docs(e)
		case "n":
			r.N = f.int(e)
		case "cursorId":
			r.CursorID = f.int(e)
		case "result":
			r.Result = f.doc(e)
		case "resumeToken":
			r.ResumeToken = f.str(e)
		default:
			known = false
			f.value(e)
		}
		if known {
			f.once(e.Key)
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return r, nil
}
