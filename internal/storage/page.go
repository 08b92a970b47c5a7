package storage

// Paged copy-on-write record store.
//
// The record store is an array of fixed-size pages addressed through a spine
// of page pointers. A record position is split into a page index
// (pos >> pageShift) and a slot offset (pos & pageMask), so positions — and
// with them every index position list — stay exactly as stable as they were
// with the flat array. What changes is the unit of
// copy-on-write: where the flat store copied the whole record array on the
// first update or delete of a batch (O(collection)), the paged store copies
// only the pages the batch actually rewrites (O(touched pages)), plus a
// pointer-sized spine copy. A single-document update on a 100k-document
// collection now copies one ~page-sized block instead of megabytes.
//
// A page or spine that a copy superseded is garbage like any other: the
// published versions that still hold it keep it alive, and once no snapshot
// pins those versions Go's collector frees it. Dead slots are reclaimed by
// compaction alone (Collection.compactLocked), so no page is ever dropped
// from the spine and every position below a version's length names a slot.
const (
	pageShift = 8
	pageSize  = 1 << pageShift // records per page
	pageMask  = pageSize - 1
)

// page is one fixed-size block of record slots, 4 KiB exactly. Published
// pages are immutable except at slots at positions >= every published length
// (batch-local appends), which no reader observes. Which pages the current
// batch owns the writer keeps beside the spine (Collection.owners), not in
// the page.
type page struct {
	recs [pageSize]record
}

// record returns the record at pos in the version.
func (v *version) record(pos int) *record {
	return &v.pages[pos>>pageShift].recs[pos&pageMask]
}

// writerRecord returns the record at pos in the writer's (possibly shared)
// state for reading. Mutation must go through ownSlotLocked.
func (c *Collection) writerRecord(pos int) *record {
	return &c.pages[pos>>pageShift].recs[pos&pageMask]
}

// ensureSpineLocked makes the spine (the page-pointer slice) safe to mutate
// in place, copying it when it is shared with a published version. The copy
// is O(pages): pointer-sized entries, not records.
func (c *Collection) ensureSpineLocked() {
	if !c.spineShared {
		return
	}
	cp := make([]*page, len(c.pages), cap(c.pages))
	copy(cp, c.pages)
	c.pages = cp
	c.spineShared = false
}

// pageLiveBytes sums the encoded sizes of the live documents in a page up to
// limit slots (a tombstone's size is 0): the data volume a copy of this page
// duplicates.
func pageLiveBytes(p *page, limit int) int64 {
	if limit > pageSize {
		limit = pageSize
	}
	var b int64
	for i := 0; i < limit; i++ {
		b += int64(p.recs[i].size)
	}
	return b
}

// ownSlotLocked makes the record slot at pos safe to mutate in place and
// returns it. Slots past the published length are batch-local and mutable as
// they are; slots in pages the current batch already owns are too. Only a
// slot in a shared page below the published watermark pays for a copy — of
// that one page.
func (c *Collection) ownSlotLocked(pos int) *record {
	pi, off := pos>>pageShift, pos&pageMask
	p := c.pages[pi]
	if c.owners[pi] == c.writeSeq || pos >= c.pubLen {
		return &p.recs[off]
	}
	np := &page{recs: p.recs}
	c.ensureSpineLocked()
	c.pages[pi] = np
	c.owners[pi] = c.writeSeq
	copied := pageLiveBytes(p, c.pubLen-(pi<<pageShift))
	c.pagesCopied.Add(1)
	c.cowBytesCopied.Add(copied)
	if shared := int64(c.dataSize) - copied; shared > 0 {
		c.cowBytesShared.Add(shared)
	}
	return &np.recs[off]
}

// appendSlotLocked returns the slot for the next record position, growing the
// spine by a page when the last one is full. Appends never copy: they write
// at positions no published version covers.
func (c *Collection) appendSlotLocked() *record {
	pos := c.length
	pi, off := pos>>pageShift, pos&pageMask
	if pi == len(c.pages) {
		np := new(page)
		c.owners = append(c.owners, c.writeSeq)
		if len(c.pages) == cap(c.pages) {
			// The append below reallocates the spine, leaving the shared
			// array untouched in the published version's hands.
			c.pages = append(c.pages, np)
			c.spineShared = false
		} else {
			// In-place append past every published spine length: invisible
			// to readers, exactly like record appends past pubLen.
			c.pages = append(c.pages, np)
		}
	}
	c.length++
	return &c.pages[pi].recs[off]
}

// EngineStats is the MVCC engine's memory-economics gauge set, surfaced
// through collection stats, mongod serverStatus and the wire protocol so a
// stuck cursor retaining old versions is visible, not silent.
type EngineStats struct {
	// LiveVersions is the current version plus every superseded version some
	// snapshot still pins.
	LiveVersions int
	// PinnedSnapshots is the number of snapshots held, on any version:
	// roughly "open cursors and snapshots".
	PinnedSnapshots int
	// Pages and PageSizeRecords describe the store shape.
	Pages           int
	PageSizeRecords int
	// COWBytesCopied / COWBytesShared split every mutating batch's record
	// data into the part page copies duplicated and the part that stayed
	// shared with published versions. Their ratio is the paging win.
	// PagesCopied counts the page copies.
	COWBytesCopied int64
	COWBytesShared int64
	PagesCopied    int64
	// TreeNodesCopied/TreeBytesCopied/TreeBytesShared are the persistent
	// index-tree analogues of the page COW gauges: each mutating batch
	// path-copies only the O(log n) nodes it touches, sharing the rest with
	// published versions.
	TreeNodesCopied int64
	TreeBytesCopied int64
	TreeBytesShared int64
}

// EngineStats returns the collection's engine gauges. It reads the published
// version and atomic counters, so it never contends with writers; a snapshot
// taken or released meanwhile may be counted or not.
func (c *Collection) EngineStats() EngineStats {
	cur := c.current.Load()
	live := 1 + int(c.pinnedVersions.Load())
	if cur.pins.Load() > 0 {
		live-- // the current version is counted once, pinned or not
	}
	return EngineStats{
		LiveVersions:    max(live, 1),
		PinnedSnapshots: int(c.pinnedSnapshots.Load()),
		Pages:           len(cur.pages),
		PageSizeRecords: pageSize,
		COWBytesCopied:  c.cowBytesCopied.Load(),
		COWBytesShared:  c.cowBytesShared.Load(),
		PagesCopied:     c.pagesCopied.Load(),
		TreeNodesCopied: c.treeNodesCopied.Load(),
		TreeBytesCopied: c.treeBytesCopied.Load(),
		TreeBytesShared: c.treeBytesShared.Load(),
	}
}

// Add folds another gauge set into s; the database and server stats use it to
// aggregate across collections.
func (s *EngineStats) Add(o EngineStats) {
	s.LiveVersions += o.LiveVersions
	s.PinnedSnapshots += o.PinnedSnapshots
	s.Pages += o.Pages
	s.PageSizeRecords = pageSize
	s.COWBytesCopied += o.COWBytesCopied
	s.COWBytesShared += o.COWBytesShared
	s.PagesCopied += o.PagesCopied
	s.TreeNodesCopied += o.TreeNodesCopied
	s.TreeBytesCopied += o.TreeBytesCopied
	s.TreeBytesShared += o.TreeBytesShared
}

// COWBytesCopied returns the lifetime count of record bytes duplicated by
// page copies. It reads a single atomic, so a traced bulk write can sample
// it around the batch to attribute copy cost to its span without touching
// the collection mutex.
func (c *Collection) COWBytesCopied() int64 { return c.cowBytesCopied.Load() }
