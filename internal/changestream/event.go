package changestream

import (
	"docstore/internal/bson"

	"docstore/internal/storage"
	"docstore/internal/wal"
)

// Operation types of change events, mirroring the real server's change
// stream operationType values.
const (
	OpInsert       = "insert"
	OpUpdate       = "update"
	OpDelete       = "delete"
	OpDrop         = "drop"
	OpDropDatabase = "dropDatabase"
)

// Event is one delivered change. Events mirror the write-ahead log — the
// stream is a tail of the journal, exactly like tailing the oplog — so an
// event describes a logged operation: an insert carries the full document, an
// update carries its specification (the log records logical operations, not
// per-document post-images), a delete carries its filter. Events are shared
// between watchers and with the replay path; consumers must treat every
// document reachable from an event as read-only.
type Event struct {
	// Token is the event's resume token: hand it back as resumeAfter to
	// continue the stream strictly after this event.
	Token Token
	// OpType is one of the Op* constants.
	OpType string
	// DB and Coll name the namespace the change applies to; Coll is empty
	// for database-wide events (dropDatabase).
	DB   string
	Coll string
	// DocumentKey is {_id: v} when the operation pins a single document by
	// id: always for inserts, and for updates/deletes whose filter is an
	// _id point query.
	DocumentKey *bson.Doc
	// FullDocument is the inserted document (inserts only).
	FullDocument *bson.Doc
	// UpdateDescription carries an update's specification: {query, update,
	// multi?, upsert?}.
	UpdateDescription *bson.Doc
	// Filter is a delete's filter document.
	Filter *bson.Doc
	// Shard names the shard that produced the event in a cluster-wide
	// merged stream; empty on a stand-alone stream.
	Shard string

	doc *bson.Doc // cached rendering, built once per event
}

// Doc returns the event rendered as a document, the form the wire protocol
// delivers and the form $match pipeline filters evaluate against:
//
//	{_id: "<token>", operationType: "insert", ns: {db: "d", coll: "c"},
//	 documentKey: {_id: ...}, fullDocument: {...}}
//
// EventsFromRecord pre-renders every event before it is shared, so Doc is a
// cache read for broker-delivered events; it deliberately never writes the
// cache itself, because the same *Event is handed to every watcher and a
// lazy write would race concurrent consumers. Callers must not mutate the
// rendering.
func (e *Event) Doc() *bson.Doc {
	if e.doc != nil {
		return e.doc
	}
	return e.render()
}

// render builds the document form. It is called once by the single-threaded
// constructor (EventsFromRecord) to fill the cache, and per call on private
// copies whose cache was reset (the cluster merge's shard stamping).
func (e *Event) render() *bson.Doc {
	d := bson.NewDoc(7)
	d.Set("_id", e.Token.String())
	d.Set("operationType", e.OpType)
	ns := bson.NewDoc(2)
	ns.Set("db", e.DB)
	if e.Coll != "" {
		ns.Set("coll", e.Coll)
	}
	d.Set("ns", ns)
	if e.Shard != "" {
		d.Set("shard", e.Shard)
	}
	if e.DocumentKey != nil {
		d.Set("documentKey", e.DocumentKey)
	}
	if e.FullDocument != nil {
		d.Set("fullDocument", e.FullDocument)
	}
	if e.UpdateDescription != nil {
		d.Set("updateDescription", e.UpdateDescription)
	}
	if e.Filter != nil {
		d.Set("filter", e.Filter)
	}
	return d
}

// ResetDocCache clears the cached rendering. The cluster merge stamps a
// shard name onto a copied event and resets the copy's cache so its
// rendering reflects the stamp (the original, shared with other watchers, is
// untouched).
func (e *Event) ResetDocCache() { e.doc = nil }

// EventsFromRecord derives the change events of one WAL record, in operation
// order. Index management records produce no watcher-visible events (their
// LSNs still advance the delivery frontier). The same derivation serves the
// live tail and the resume replay, which is what makes a resumed stream
// byte-equivalent to one that never disconnected.
//
// cloneSpecs deep-copies the update and delete specs into the events. The
// live path sets it (under the collection lock) because those specs are the
// caller's, who may reuse them once the write returns. An insert's document
// is shared either way: it is the document the collection stores, which
// nothing writes again (storage.Insert). Records decoded from segment files
// own their documents, so replay passes false.
func EventsFromRecord(rec *wal.Record, cloneSpecs bool) []*Event {
	events := eventsFromRecord(rec, cloneSpecs)
	// Pre-render here, while the events are still private to one
	// goroutine: once the broker shares them across watcher buffers, a
	// lazy cache fill would race concurrent consumers.
	for _, ev := range events {
		ev.doc = ev.render()
	}
	return events
}

func eventsFromRecord(rec *wal.Record, cloneSpecs bool) []*Event {
	switch rec.Kind {
	case wal.KindBatch:
		events := make([]*Event, 0, len(rec.Ops))
		for i := range rec.Ops {
			op := &rec.Ops[i]
			ev := &Event{
				Token: Token{LSN: rec.LSN, Op: int32(i)},
				DB:    rec.DB, Coll: rec.Coll,
			}
			switch op.Kind {
			case storage.InsertOp:
				ev.setInsert(op.Doc)
			case storage.UpdateOp:
				ev.OpType = OpUpdate
				q, u := op.Update.Query, op.Update.Update
				if cloneSpecs {
					q, u = q.Clone(), u.Clone()
				}
				desc := bson.NewDoc(4)
				if q != nil {
					desc.Set("query", q)
				}
				if u != nil {
					desc.Set("update", u)
				}
				if op.Update.Multi {
					desc.Set("multi", true)
				}
				if op.Update.Upsert {
					desc.Set("upsert", true)
				}
				ev.UpdateDescription = desc
				ev.DocumentKey = pointIDKey(q)
			case storage.DeleteOp:
				ev.OpType = OpDelete
				f := op.Filter
				if cloneSpecs {
					f = f.Clone()
				}
				ev.Filter = f
				ev.DocumentKey = pointIDKey(f)
			default:
				continue
			}
			events = append(events, ev)
		}
		return events
	case wal.KindClear, wal.KindDropCollection:
		return []*Event{{
			Token:  Token{LSN: rec.LSN, Op: 0},
			OpType: OpDrop,
			DB:     rec.DB, Coll: rec.Coll,
		}}
	case wal.KindReplace:
		// A drop, then one insert per new document: what a wipe and a batch
		// of inserts would have produced, with the tokens increasing within
		// the one record.
		events := make([]*Event, 0, 1+len(rec.Ops))
		events = append(events, &Event{
			Token:  Token{LSN: rec.LSN, Op: 0},
			OpType: OpDrop,
			DB:     rec.DB, Coll: rec.Coll,
		})
		for i, doc := range rec.Docs() {
			ev := &Event{Token: Token{LSN: rec.LSN, Op: int32(i + 1)}, DB: rec.DB, Coll: rec.Coll}
			ev.setInsert(doc)
			events = append(events, ev)
		}
		return events
	case wal.KindDropDatabase:
		return []*Event{{
			Token:  Token{LSN: rec.LSN, Op: 0},
			OpType: OpDropDatabase,
			DB:     rec.DB,
		}}
	default: // index management: frontier-only
		return nil
	}
}

// setInsert makes the event the insert of doc, the stored document, which is
// shared.
func (e *Event) setInsert(doc *bson.Doc) {
	e.OpType = OpInsert
	e.FullDocument = doc
	if id := doc.ID(); id != nil {
		e.DocumentKey = bson.D(bson.IDKey, id)
	}
}

// pointIDKey extracts {_id: v} from a filter that pins a single document by
// a literal _id, the only case where an update/delete event can name its
// document key without the post-apply state.
func pointIDKey(filter *bson.Doc) *bson.Doc {
	if filter == nil {
		return nil
	}
	v, ok := filter.Get(bson.IDKey)
	if !ok {
		return nil
	}
	switch v.(type) {
	case *bson.Doc, []any:
		return nil // operator or array form: not a point literal
	}
	return bson.D(bson.IDKey, v)
}
