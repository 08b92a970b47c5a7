// Package storage implements the collection storage engine: document
// storage, indexes (the unique _id_ index every collection is born with and
// the ones users create are one mechanism, internal/index), a query planner
// that chooses between collection scans and index scans, update/delete
// execution, multi-version concurrency control with paged copy-on-write
// snapshots, and snapshot persistence.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"docstore/internal/bson"
	"docstore/internal/index"
	"docstore/internal/query"
)

// ErrDocumentTooLarge is returned when a document exceeds the 16 MB limit.
type ErrDocumentTooLarge struct {
	Size int
}

func (e *ErrDocumentTooLarge) Error() string {
	return fmt.Sprintf("storage: document of %d bytes exceeds the %d byte limit", e.Size, bson.MaxDocumentSize)
}

// ErrDocumentTooDeep is returned for a document — one to store, or the filter
// or the update of a write — that nests more than bson.MaxDocumentDepth
// levels: a decoder would refuse it where it comes back wrapped, in a log
// record, a snapshot or a reply.
var ErrDocumentTooDeep = fmt.Errorf("storage: document nests more than %d levels", bson.MaxDocumentDepth)

// ErrDuplicateID is returned when inserting a document whose _id already
// exists in the collection.
type ErrDuplicateID struct {
	ID any
}

func (e *ErrDuplicateID) Error() string {
	return fmt.Sprintf("storage: duplicate _id %v", e.ID)
}

// record is one stored document slot: the document and its encoded size
// (at most bson.MaxDocumentSize, so 32 bits hold it). Deleted slots remain as
// tombstones — a nil document, size 0 — until the collection compacts, which
// keeps scans in insertion order and — more importantly under MVCC — keeps
// record positions stable, so the positions index entries carry survive
// deletes without rebuilds. Pinned versions keep a deleted document alive
// through their own pages, and once they release, the memory goes.
type record struct {
	doc  *bson.Doc
	size int32
}

// version is one immutable published state of a collection: the unit of
// multi-version concurrency control. A writer builds the next state under
// the collection's write mutex and publishes it with one atomic pointer
// swap; readers pin a version with one atomic load and then scan it without
// any lock. Once published, a version never changes:
//
//   - every record at positions [0, length) is frozen. Writers that must
//     modify an existing slot (update, delete) copy the page holding it
//     first (Collection.ownSlotLocked) — O(touched pages), not
//     O(collection); writers that only append may share pages and spine,
//     because appends write exclusively at positions >= the published
//     length, which no reader of this version ever accesses.
//   - every *bson.Doc reachable from the pages is frozen, and so is every
//     array: nothing writes them again. Updates install a modified shallow
//     copy instead of mutating the stored document, copying only the nested
//     documents on the paths they write, so a pinned version observes
//     point-in-time document contents, not just a point-in-time membership
//     set. Because nothing is written, a nested value may be shared by many
//     stored documents — the dimension document one Figure 4.7 multi-update
//     embeds is one copy, held by every fact row it matched — and by many
//     versions.
//   - counters, the journal watermark and the index definitions are plain
//     fields captured at publish time, so Count/Stats/checkpoint manifests
//     are mutually consistent with the records they describe.
type version struct {
	// seq is the monotonically increasing version number, starting at 1 for
	// a fresh collection; Plan.SnapshotVersion and Snapshot.Version surface
	// it through explain and the storage.plan span.
	seq    int64
	pages  []*page
	length int // record positions in use: [0, length)
	// pins counts the snapshots currently pinning this version, for the
	// LiveVersions gauge. It guards nothing: what a snapshot reads, Go's
	// collector keeps alive for as long as the snapshot is reachable.
	pins     atomic.Int64
	count    int
	dataSize int
	// lastLSN is the journal watermark as of this version: the LSN of the
	// newest mutation folded into the records. Checkpoints pair it with the
	// snapshot data so recovery replays exactly the records the snapshot
	// does not already contain.
	lastLSN int64
	// indexMeta holds the definitions of the user-created indexes live at
	// this version, sorted by index name (checkpoints rebuild trees by
	// backfilling; _id_ is implied and never listed).
	indexMeta []IndexMeta
	// indexes is the version-owned immutable index set: one frozen handle per
	// index, _id_ included, sharing tree nodes with the writer's trees via
	// path-copying (see index.BTree). Their entries are positions into this
	// version's pages. Planning, index scans and _id lookups read these with
	// no locking, exactly like the record pages.
	indexes indexSet
	// indexSize is the summed in-memory size estimate of the user-created
	// indexes at publish time, for lock-free Stats.
	indexSize int
}

// indexSet is a collection's indexes: the unique _id_ index in slot 0, then
// the user-created ones sorted by name. Both the writer's live set and every
// version's frozen set use it instead of a map: publishing N indexes costs
// one small slice allocation per version (a map costs an order of magnitude
// more, paid on every single-document publish), and planning — which touches
// a handful of entries — scans it linearly. _id_ leads so that a document
// violating both it and a unique user index is refused as a duplicate _id.
type indexSet []indexEntry

// idIndexName names the index over _id that every collection is born with,
// as the real server does; idIndexSpec is its key specification, {_id: 1}.
const idIndexName = "_id_"

var idIndexSpec = index.Spec{Fields: []index.Field{{Name: bson.IDKey}}}

// user returns the user-created indexes: what listings, stats and checkpoint
// manifests name.
func (s indexSet) user() indexSet { return s[1:] }

type indexEntry struct {
	name string
	ix   *index.Index
}

// byName returns the named index, or nil.
func (s indexSet) byName(name string) *index.Index {
	for _, e := range s {
		if e.name == name {
			return e.ix
		}
	}
	return nil
}

// Collection is a single document collection. All methods are safe for
// concurrent use: writers serialize on an internal mutex, readers pin
// immutable versions and never block (see doc.go, "Concurrency & isolation"
// and "MVCC memory management").
type Collection struct {
	name string

	// mu serializes every mutation (and the journal append that precedes
	// it, so log order equals apply order). Finds never take it: they pin a
	// published version and use its pages and frozen index trees.
	mu sync.Mutex
	// pages/length are the writer's record store: a spine of page pointers
	// over fixed-size record pages (see page.go).
	pages    []*page
	length   int
	indexes  indexSet
	count    int
	dataSize int
	tombs    int
	// writeSeq identifies the current write batch: pages whose ownerSeq
	// equals it are private to the batch and mutable in place. publishLocked
	// advances it, disowning every page at once.
	writeSeq int64
	// pubLen is the published version's length: slots at or past it are
	// batch-local and mutable without copying.
	pubLen int
	// spineShared marks the spine's backing array as referenced by the
	// published version: the next in-place spine-slot rewrite copies first.
	spineShared bool
	// indexesChanged makes the next publish rebuild the version's index
	// metadata; steady-state writes reuse the previous slice.
	indexesChanged bool
	// written is where updateLocked has ApplyUpdate report a row's writes:
	// one slice for every row of every op, so a row allocates nothing for it.
	written query.Written

	// current is the published version readers pin. It is never nil.
	current atomic.Pointer[version]

	// pinnedVersions counts the versions, current or superseded, that at
	// least one snapshot pins, and pinnedSnapshots the snapshots held: the
	// EngineStats gauges, kept by Snapshot and Release.
	pinnedVersions  atomic.Int64
	pinnedSnapshots atomic.Int64

	// journal, when attached, receives every mutation before it is applied;
	// lastLSN is the sequence number of the newest journaled mutation (see
	// journal.go).
	journal Journal
	lastLSN int64

	// stats (atomic: bumped lock-free by readers and by the writer without
	// extending its critical section)
	scans          atomic.Int64 // collection scans performed
	indexScans     atomic.Int64 // index scans performed
	docsExamined   atomic.Int64 // documents examined by read cursors
	keysExamined   atomic.Int64 // index entries read to plan them
	cowBytesCopied atomic.Int64 // record bytes duplicated by COW page copies
	cowBytesShared atomic.Int64 // record bytes shared instead of copied
	pagesCopied    atomic.Int64
	// Persistent index-tree gauges, the node analogues of the page COW set:
	// path copies split each mutating batch's tree bytes into copied vs
	// shared.
	treeNodesCopied atomic.Int64
	treeBytesCopied atomic.Int64
	treeBytesShared atomic.Int64
}

// NewCollection creates an empty collection.
func NewCollection(name string) *Collection {
	c := &Collection{name: name, writeSeq: 1}
	c.indexes = indexSet{c.newIDIndexLocked()}
	c.current.Store(&version{seq: 1, indexes: c.freezeIndexesLocked()})
	return c
}

// newIDIndexLocked returns the empty _id_ index of a new or just-dropped
// collection.
func (c *Collection) newIDIndexLocked() indexEntry {
	ix := index.New(idIndexName, idIndexSpec, true)
	c.adoptIndexLocked(ix)
	return indexEntry{name: idIndexName, ix: ix}
}

// freezeIndexesLocked returns the index set a version publishes: O(1)
// handles sharing the writer's current tree nodes.
func (c *Collection) freezeIndexesLocked() indexSet {
	frozen := make(indexSet, len(c.indexes))
	for i, e := range c.indexes {
		frozen[i] = indexEntry{name: e.name, ix: e.ix.Freeze()}
	}
	return frozen
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

// publishLocked makes the writer's current state the published version. It
// must be called before the write mutex is released by every path that
// mutated collection state or advanced the journal watermark — including
// apply-error paths, whose logged LSN must still reach checkpoints. The
// atomic store has release semantics, so a reader that pins the new version
// observes every record and document written before this call.
func (c *Collection) publishLocked() {
	prev := c.current.Load()
	v := &version{
		seq:       prev.seq + 1,
		pages:     c.pages,
		length:    c.length,
		count:     c.count,
		dataSize:  c.dataSize,
		lastLSN:   c.lastLSN,
		indexMeta: prev.indexMeta,
	}
	if c.indexesChanged {
		c.indexesChanged = false
		v.indexMeta = nil
		for _, e := range c.indexes.user() {
			v.indexMeta = append(v.indexMeta, IndexMeta{Spec: e.ix.Spec().Doc(), Unique: e.ix.Unique()})
		}
	}
	// Re-stamping below opens a new COW era, so the next batch path-copies
	// any node it touches instead of mutating what the frozen handles reach.
	v.indexes = c.freezeIndexesLocked()
	for _, e := range c.indexes.user() {
		v.indexSize += e.ix.SizeBytes()
	}
	c.current.Store(v)
	c.spineShared = true
	c.pubLen = c.length
	c.writeSeq++
	for _, e := range c.indexes {
		e.ix.SetStamp(c.writeSeq)
	}
}

// noteTreeCopyLocked is the index-tree path-copy observer (index.BTree's
// copy hook), called under the write mutex once per copy event — a node
// shell or an item array a mutating batch duplicates (the tree aliases item
// arrays on pure-descent path copies and duplicates them lazily, so interior
// nodes usually cost one child-pointer array, not their full item slots).
// The superseded memory stays reachable from the frozen index handles of
// published versions, and Go's collector frees it once none of them is
// reachable, exactly as it frees superseded pages. The copied/shared gauges
// mirror ownSlotLocked's: the copied bytes are this node, the shared bytes
// are the rest of the tree the batch did not touch.
func (c *Collection) noteTreeCopyLocked(ix *index.Index, bytes int64) {
	c.treeNodesCopied.Add(1)
	c.treeBytesCopied.Add(bytes)
	if shared := int64(ix.SizeBytes()) - bytes; shared > 0 {
		c.treeBytesShared.Add(shared)
	}
}

// adoptIndexLocked wires a newly created index into the collection's COW
// protocol: the tree joins the current write batch's era (its backfill may
// mutate in place — no frozen handle references it yet) and reports its
// future path copies to the gauges.
func (c *Collection) adoptIndexLocked(ix *index.Index) {
	ix.SetStamp(c.writeSeq)
	ix.SetCopyHook(func(bytes int64) { c.noteTreeCopyLocked(ix, bytes) })
}

// Insert adds a document to the collection. When the document has no _id an
// ObjectID is assigned (mirroring the behaviour described in §2.1). The
// stored document is the one passed in, nested values and all; callers must
// not mutate it, or anything it holds, afterwards (updates never mutate it
// either — they install shallow copies that share what they did not write).
// Like Update and Delete, it is a thin wrapper over BulkWrite.
func (c *Collection) Insert(doc *bson.Doc) (any, error) {
	res := c.BulkWrite([]WriteOp{InsertWriteOp(doc)}, BulkOptions{Ordered: true})
	return res.InsertedID()
}

// ensureID gives a document without an _id the id given, or a fresh
// ObjectID when that is nil, rebuilding the document so _id leads it, as the
// real engine stores it. It returns the document's id.
func ensureID(doc *bson.Doc, id any) any {
	if have, ok := doc.Get(bson.IDKey); ok {
		return have
	}
	if id == nil {
		id = bson.NewObjectID()
	}
	*doc = *doc.WithID(id)
	return id
}

// insertedSize returns the encoded size of a document about to be inserted
// under id, or why it cannot be: storedSize's checks, and an array _id
// refused as the real server refuses it (_id_ would turn multikey, and
// [1, 2] would collide with [2, 3]).
func insertedSize(doc *bson.Doc, id any) (int, error) {
	if _, isArray := id.([]any); isArray {
		return 0, fmt.Errorf("storage: the %s field cannot be an array", bson.IDKey)
	}
	return storedSize(doc)
}

// storedSize returns the encoded size of a document about to be stored, or
// why it cannot be: the one check behind every insert, upsert and
// replacement, and the specification of updatedSize.
func storedSize(doc *bson.Doc) (int, error) {
	size := bson.EncodedSize(doc)
	if size > bson.MaxDocumentSize {
		return 0, &ErrDocumentTooLarge{Size: size}
	}
	if !bson.NestsWithin(doc, bson.MaxDocumentDepth) {
		return 0, ErrDocumentTooDeep
	}
	return size, nil
}

func (c *Collection) insertLocked(doc *bson.Doc) (any, error) {
	id := ensureID(doc, nil)
	size, err := insertedSize(doc, id)
	if err != nil {
		return nil, err
	}
	// The position the document is about to take; index entries carry it.
	pos := c.length
	for i, e := range c.indexes {
		if err := e.ix.Insert(doc, pos); err != nil {
			// Roll back entries added to earlier indexes.
			for _, other := range c.indexes[:i] {
				other.ix.Remove(doc, pos)
			}
			var dup *index.ErrDuplicateKey
			if e.name == idIndexName && errors.As(err, &dup) {
				return nil, &ErrDuplicateID{ID: id}
			}
			return nil, err
		}
	}
	// Appending is safe even into pages shared with the published version:
	// the write lands at a position no pinned reader accesses (see the
	// version invariants).
	*c.appendSlotLocked() = record{doc: doc, size: int32(size)}
	c.count++
	c.dataSize += size
	return id, nil
}

// InsertMany inserts a batch of documents, stopping at the first error.
// It returns the ids of the documents inserted so far, in document order. It
// is a thin wrapper over the bulk-write engine: the whole batch executes
// under one lock acquisition.
func (c *Collection) InsertMany(docs []*bson.Doc) ([]any, error) {
	res := c.BulkWrite(InsertOps(docs), BulkOptions{Ordered: true})
	return res.CompactInsertedIDs(), res.FirstError()
}

// reserveLocked grows the spine capacity ahead of a batch of n inserts so
// the batch appends pages without repeated spine reallocation. Growth is at
// least geometric so repeated batches keep the amortized O(1) append cost.
func (c *Collection) reserveLocked(n int) {
	if n <= 0 {
		return
	}
	needPages := (c.length + n + pageMask) >> pageShift
	if needPages <= cap(c.pages) {
		return
	}
	if doubled := 2 * cap(c.pages); doubled > needPages {
		needPages = doubled
	}
	grown := make([]*page, len(c.pages), needPages)
	copy(grown, c.pages)
	c.pages = grown
	c.spineShared = false
}

// FindID returns the document with the given _id, or nil when absent. The
// lookup runs against a pinned snapshot's frozen _id_ tree, so it never takes
// the writer mutex; the returned document is immutable (updates replace it).
func (c *Collection) FindID(id any) *bson.Doc {
	s := c.Snapshot()
	defer s.Release()
	return s.FindID(id)
}

// Count returns the number of live documents in the published version.
func (c *Collection) Count() int {
	return c.current.Load().count
}

// DataSize returns the total encoded size of live documents in bytes.
func (c *Collection) DataSize() int {
	return c.current.Load().dataSize
}

// Scan invokes fn for every live document in insertion order until fn
// returns false. The scan runs over a pinned snapshot and never blocks (or
// is blocked by) writers; documents committed after the call starts are not
// seen.
func (c *Collection) Scan(fn func(*bson.Doc) bool) {
	s := c.Snapshot()
	defer s.Release()
	s.Scan(fn)
}

// Drop removes every document and user-created index. With a journal attached
// the wipe is logged first so recovery reproduces it; a journal failure here
// is best-effort (Drop predates durability and has no error return).
func (c *Collection) Drop() {
	c.mu.Lock()
	commit, _ := c.logRecordLocked(Journal.LogClear)
	c.clearLocked()
	c.publishLocked()
	c.mu.Unlock()
	_ = waitCommit(commit, false)
}

// clearLocked empties the writer's state — records, user-created indexes,
// counters — without publishing: what Drop does, and the first half of
// ReplaceContents.
func (c *Collection) clearLocked() {
	c.pages = nil
	c.length = 0
	c.indexes = indexSet{c.newIDIndexLocked()}
	c.count = 0
	c.dataSize = 0
	c.tombs = 0
	c.spineShared = false
	c.indexesChanged = true
}

// compactLocked rewrites the record store without tombstones. It is the one
// event that moves record positions, so every index entry moves with it: each
// writer tree is rebuilt from fresh nodes with the positions renumbered
// (index.Index.Remap). The rewrite lands in fresh pages and fresh tree nodes,
// so versions pinned before the compaction keep their own frozen pages and
// their own frozen trees, which still agree with each other in the old
// numbering.
func (c *Collection) compactLocked() {
	if c.tombs == 0 {
		return
	}
	oldPages, oldLen := c.pages, c.length
	c.pages = make([]*page, 0, (c.count+pageMask)>>pageShift)
	c.length = 0
	c.spineShared = false
	newPos := make([]int, oldLen) // old position -> new, -1 for a dropped tombstone
	for i := range newPos {
		newPos[i] = -1
	}
	for pi, base := 0, 0; base < oldLen; pi, base = pi+1, base+pageSize {
		p := oldPages[pi]
		end := oldLen - base
		if end > pageSize {
			end = pageSize
		}
		for off := 0; off < end; off++ {
			r := p.recs[off]
			if r.doc == nil {
				continue
			}
			newPos[base+off] = c.length
			*c.appendSlotLocked() = r
		}
	}
	for _, e := range c.indexes {
		e.ix.Remap(newPos)
	}
	c.tombs = 0
}

// Stats summarizes the collection, mirroring collStats.
type Stats struct {
	Name            string
	Count           int
	DataSizeBytes   int
	AvgObjSizeBytes int
	IndexCount      int
	IndexSizeBytes  int
	CollScans       int64
	IndexScans      int64
	// DocsExamined counts the documents read-path cursors looked at: a
	// deterministic work measure independent of wall-clock noise.
	// KeysExamined counts the index entries their plans read to get there,
	// intersected indexes included: fewer documents can mean more of these.
	DocsExamined int64
	KeysExamined int64
}

// Stats returns current collection statistics. Everything is read from the
// published version and atomic counters, so Stats never contends with
// writers.
func (c *Collection) Stats() Stats {
	v := c.current.Load()
	s := Stats{
		Name:           c.name,
		Count:          v.count,
		DataSizeBytes:  v.dataSize,
		IndexCount:     len(v.indexMeta),
		IndexSizeBytes: v.indexSize,
		CollScans:      c.scans.Load(),
		IndexScans:     c.indexScans.Load(),
		DocsExamined:   c.docsExamined.Load(),
		KeysExamined:   c.keysExamined.Load(),
	}
	if v.count > 0 {
		s.AvgObjSizeBytes = v.dataSize / v.count
	}
	return s
}

// WorkingSetBytes approximates the working set contribution of the
// collection: data plus index sizes (§2.1.3.2 of the thesis).
func (c *Collection) WorkingSetBytes() int {
	st := c.Stats()
	return st.DataSizeBytes + st.IndexSizeBytes
}
