package storage

import (
	"math"
	"time"
)

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
// Pages retired by a copy (and whole spines retired by a spine copy) are
// recycled through a small free list once pin tracking proves no live
// snapshot can still observe them, making a steady point-write stream nearly
// allocation-free. Fully tombstoned pages are nilled out of the spine by an
// incremental GC that runs a few pages at a time on the write path, so
// tombstone runs release their memory well below the full-compaction
// threshold.
const (
	pageShift = 8
	pageSize  = 1 << pageShift // records per page
	pageMask  = pageSize - 1
)

// page is one fixed-size block of record slots. Published pages are
// immutable except for two writer-side escape hatches that no reader can
// observe: slots at positions >= every published length (batch-local
// appends), and the ownerSeq/tombs bookkeeping fields, which only the writer
// (under the collection mutex) reads or writes.
type page struct {
	recs [pageSize]record
	// ownerSeq marks the write batch that privately owns this page: when it
	// equals the collection's writeSeq the page was created or copied by the
	// current (unpublished) batch and may be mutated freely; otherwise the
	// page is shared with published versions and must be copied first.
	ownerSeq int64
	// tombs counts tombstoned slots in the page. When every slot of a fully
	// published page is a tombstone the GC can nil the page out of the spine.
	tombs int
}

// retiredPage is a page (or spine) dropped from the writer's state but still
// reachable from published versions. seq is the newest published version that
// can reference it: once no pinned snapshot's version is <= seq, the page is
// recycled into the free list (and its bytes counted as reclaimed).
type retiredPage struct {
	p     *page
	spine []*page // non-nil for a retired spine instead of a page
	seq   int64
	bytes int64
}

// Bookkeeping caps. They bound the engine's metadata, not its correctness:
// overflowing entries are dropped to the garbage collector instead of being
// recycled, so a leaked (never-released) snapshot degrades allocation reuse
// and gauge precision, never safety.
const (
	maxTrackedVersions = 256
	maxRetiredPages    = 512
	maxRetiredNodeSets = 512
	maxFreePages       = 64
	maxFreeSpines      = 4
	// gcPagesPerBatch is how many pages the incremental tombstone GC examines
	// per published batch: a few spine slots, amortized across writes.
	gcPagesPerBatch = 32
)

// record returns the record at pos in the version, or nil when the position
// lies in a page the GC reclaimed (every such slot was a tombstone).
func (v *version) record(pos int) *record {
	p := v.pages[pos>>pageShift]
	if p == nil {
		return nil
	}
	return &p.recs[pos&pageMask]
}

// writerRecord returns the record at pos in the writer's (possibly shared)
// state for reading. Mutation must go through ownSlotLocked.
func (c *Collection) writerRecord(pos int) *record {
	p := c.pages[pos>>pageShift]
	if p == nil {
		return nil
	}
	return &p.recs[pos&pageMask]
}

// ensureSpineLocked makes the spine (the page-pointer slice) safe to mutate
// in place, copying it when it is shared with a published version. The copy
// is O(pages): pointer-sized entries, not records.
func (c *Collection) ensureSpineLocked() {
	if !c.spineShared {
		return
	}
	var cp []*page
	if n := len(c.freeSpines); n > 0 && cap(c.freeSpines[n-1]) >= len(c.pages) {
		cp = c.freeSpines[n-1][:len(c.pages)]
		c.freeSpines = c.freeSpines[:n-1]
	} else {
		cp = make([]*page, len(c.pages), cap(c.pages))
	}
	copy(cp, c.pages)
	c.retired = append(c.retired, retiredPage{spine: c.pages[:len(c.pages):len(c.pages)], seq: c.current.Load().seq})
	c.pages = cp
	c.spineShared = false
	c.capRetiredLocked()
}

// newPageLocked returns a zeroed page, reusing the free list when possible.
func (c *Collection) newPageLocked() *page {
	if n := len(c.freePages); n > 0 {
		p := c.freePages[n-1]
		c.freePages = c.freePages[:n-1]
		return p
	}
	return new(page)
}

// retirePageLocked parks a page still reachable from published versions for
// later recycling.
func (c *Collection) retirePageLocked(p *page, bytes int64) {
	c.retired = append(c.retired, retiredPage{p: p, seq: c.current.Load().seq, bytes: bytes})
	c.capRetiredLocked()
}

func (c *Collection) capRetiredLocked() {
	if len(c.retired) > maxRetiredPages {
		// Drop the oldest entries to the garbage collector: always safe,
		// merely unrecycled.
		drop := len(c.retired) - maxRetiredPages
		c.retired = append(c.retired[:0], c.retired[drop:]...)
	}
}

// pageLiveBytes sums the encoded sizes of the live documents in a page up to
// limit slots: the data volume a copy of this page duplicates.
func pageLiveBytes(p *page, limit int) int64 {
	if limit > pageSize {
		limit = pageSize
	}
	var b int64
	for i := 0; i < limit; i++ {
		if !p.recs[i].deleted {
			b += int64(p.recs[i].size)
		}
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
	if p.ownerSeq == c.writeSeq || pos >= c.pubLen {
		return &p.recs[off]
	}
	np := c.newPageLocked()
	np.recs = p.recs
	np.tombs = p.tombs
	np.ownerSeq = c.writeSeq
	c.ensureSpineLocked()
	c.pages[pi] = np
	copied := pageLiveBytes(p, c.pubLen-(pi<<pageShift))
	c.retirePageLocked(p, copied)
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
		np := c.newPageLocked()
		np.ownerSeq = c.writeSeq
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

// gcLocked is the incremental engine GC, run at the end of every publish:
// it prunes unpinned versions from the live list, recycles retired pages no
// pinned snapshot can observe, and nils fully tombstoned pages out of the
// spine a few at a time.
func (c *Collection) gcLocked() {
	cur := c.current.Load()

	// The pin gate closes the window where a reader has loaded the current
	// pointer but not yet registered its pin: a version that the reader is
	// about to pin still shows zero pins, so while any reader is inside the
	// gate, BOTH the live-list prune and page recycling wait for a later
	// batch. (Pruning alone would already be unsafe: once a version is
	// dropped from tracking, the next GC computes minPinned without it and
	// recycles pages its late-registered pin still reads.) Once the gate is
	// observed closed here — under mu, after the writer published — every
	// in-flight pin is registered and pins.Load() is trustworthy; readers
	// that enter the gate afterwards can only pin cur, which is never pruned
	// and references no retired page.
	if c.pinGate.Load() == 0 {
		// Prune the live-version list and find the oldest pinned version.
		minPinned := int64(math.MaxInt64)
		keep := c.live[:0]
		for _, v := range c.live {
			if v != cur && v.pins.Load() <= 0 {
				continue
			}
			if v != cur && v.seq < minPinned {
				minPinned = v.seq
			}
			keep = append(keep, v)
		}
		for i := len(keep); i < len(c.live); i++ {
			c.live[i] = nil
		}
		c.live = keep
		if len(c.live) > maxTrackedVersions {
			// A long-lived (or leaked) pin backlog: stop tracking the oldest
			// versions. Pages they reference must never be recycled, so
			// remember the oldest untracked seq as a permanent recycling
			// floor.
			drop := len(c.live) - maxTrackedVersions
			for _, v := range c.live[:drop] {
				if v != cur && v.seq < c.untrackedPinSeq {
					c.untrackedPinSeq = v.seq
				}
			}
			c.live = append(c.live[:0], c.live[drop:]...)
		}
		if c.untrackedPinSeq < minPinned {
			minPinned = c.untrackedPinSeq
		}

		// Recycle retired pages below every pin.
		if len(c.retired) > 0 {
			keepR := c.retired[:0]
			for _, e := range c.retired {
				if e.seq >= minPinned {
					keepR = append(keepR, e)
					continue
				}
				c.reclaimedBytes.Add(e.bytes)
				if e.p != nil {
					c.pagesRecycled.Add(1)
					if len(c.freePages) < maxFreePages {
						*e.p = page{} // drop document references before reuse
						c.freePages = append(c.freePages, e.p)
					}
				} else if len(c.freeSpines) < maxFreeSpines {
					clear(e.spine)
					c.freeSpines = append(c.freeSpines, e.spine[:0])
				}
			}
			for i := len(keepR); i < len(c.retired); i++ {
				c.retired[i] = retiredPage{}
			}
			c.retired = keepR
		}

		// Count retired index-tree nodes below every pin as reclaimed: no
		// frozen index handle can reach them anymore, so Go's collector frees
		// them; the gauges record the release.
		if len(c.retiredNodes) > 0 {
			keepN := c.retiredNodes[:0]
			for _, e := range c.retiredNodes {
				if e.seq >= minPinned {
					keepN = append(keepN, e)
					continue
				}
				c.treeNodesReclaimed.Add(e.nodes)
				c.treeBytesReclaimed.Add(e.bytes)
			}
			c.retiredNodes = keepN
		}
	}

	// Incremental tombstone-run GC: walk a few pages per batch and nil out
	// the fully dead ones. Positions stay valid — readers treat a nil page
	// as all-tombstones — so index position lists survive.
	if c.tombs >= pageSize && len(c.pages) > 0 {
		fullPages := c.pubLen >> pageShift // only pages wholly below the publish watermark
		scanned := 0
		for scanned < gcPagesPerBatch && fullPages > 0 {
			if c.gcCursor >= fullPages {
				c.gcCursor = 0
			}
			pi := c.gcCursor
			c.gcCursor++
			scanned++
			p := c.pages[pi]
			if p == nil || p.tombs < pageSize {
				continue
			}
			c.ensureSpineLocked()
			c.pages[pi] = nil
			// The tombstoned docs were already released at delete time; the
			// page frame itself is what recycling reclaims.
			c.retirePageLocked(p, 0)
		}
	}
}

// EngineStats is the MVCC engine's memory-economics gauge set, surfaced
// through collection stats, mongod serverStatus and the wire protocol so a
// stuck cursor retaining old versions is visible, not silent.
type EngineStats struct {
	// LiveVersions is the number of published versions still tracked: the
	// current one plus every superseded version some snapshot still pins.
	LiveVersions int
	// PinnedSnapshots is the total pin count across superseded versions plus
	// pins on the current version — roughly "open cursors and snapshots".
	PinnedSnapshots int
	// OldestPinAge is how long ago the oldest still-pinned version was
	// published: the retention horizon a stuck cursor imposes.
	OldestPinAge time.Duration
	// RetainedBytes is the data size of the oldest pinned version: an upper
	// bound on what its retention keeps alive beyond the current version.
	RetainedBytes int64
	// Pages and PageSizeRecords describe the store shape.
	Pages           int
	PageSizeRecords int
	// COWBytesCopied / COWBytesShared split every mutating batch's record
	// data into the part page copies duplicated and the part that stayed
	// shared with published versions. Their ratio is the paging win.
	COWBytesCopied int64
	COWBytesShared int64
	// ReclaimedBytes counts data whose last referencing version was
	// retired and recycled; PagesCopied/PagesRecycled count page churn.
	ReclaimedBytes int64
	PagesCopied    int64
	PagesRecycled  int64
	// TreeNodesCopied/TreeBytesCopied/TreeBytesShared are the persistent
	// index-tree analogues of the page COW gauges: each mutating batch
	// path-copies only the O(log n) nodes it touches, sharing the rest with
	// published versions. TreeNodesReclaimed/TreeBytesReclaimed count
	// retired nodes released once no pinned snapshot could reach them.
	TreeNodesCopied    int64
	TreeBytesCopied    int64
	TreeBytesShared    int64
	TreeNodesReclaimed int64
	TreeBytesReclaimed int64
}

// EngineStats returns the collection's engine gauges. The counters are
// atomics; the version walk takes the write mutex briefly, which keeps it off
// the hot paths but exact.
func (c *Collection) EngineStats() EngineStats {
	c.mu.Lock()
	cur := c.current.Load()
	s := EngineStats{
		LiveVersions:    len(c.live),
		Pages:           len(c.pages),
		PageSizeRecords: pageSize,
		COWBytesCopied:  c.cowBytesCopied.Load(),
		COWBytesShared:  c.cowBytesShared.Load(),
		ReclaimedBytes:  c.reclaimedBytes.Load(),
		PagesCopied:     c.pagesCopied.Load(),
		PagesRecycled:   c.pagesRecycled.Load(),

		TreeNodesCopied:    c.treeNodesCopied.Load(),
		TreeBytesCopied:    c.treeBytesCopied.Load(),
		TreeBytesShared:    c.treeBytesShared.Load(),
		TreeNodesReclaimed: c.treeNodesReclaimed.Load(),
		TreeBytesReclaimed: c.treeBytesReclaimed.Load(),
	}
	var oldest *version
	for _, v := range c.live {
		pins := int(v.pins.Load())
		if pins <= 0 {
			continue
		}
		s.PinnedSnapshots += pins
		if v != cur && (oldest == nil || v.seq < oldest.seq) {
			oldest = v
		}
	}
	c.mu.Unlock()
	if oldest != nil {
		s.OldestPinAge = time.Since(oldest.publishedAt)
		s.RetainedBytes = int64(oldest.dataSize)
	}
	return s
}

// Add folds another gauge set into s; the database and server stats use it to
// aggregate across collections.
func (s *EngineStats) Add(o EngineStats) {
	s.LiveVersions += o.LiveVersions
	s.PinnedSnapshots += o.PinnedSnapshots
	if o.OldestPinAge > s.OldestPinAge {
		s.OldestPinAge = o.OldestPinAge
		s.RetainedBytes = o.RetainedBytes
	}
	s.Pages += o.Pages
	s.PageSizeRecords = pageSize
	s.COWBytesCopied += o.COWBytesCopied
	s.COWBytesShared += o.COWBytesShared
	s.ReclaimedBytes += o.ReclaimedBytes
	s.PagesCopied += o.PagesCopied
	s.PagesRecycled += o.PagesRecycled
	s.TreeNodesCopied += o.TreeNodesCopied
	s.TreeBytesCopied += o.TreeBytesCopied
	s.TreeBytesShared += o.TreeBytesShared
	s.TreeNodesReclaimed += o.TreeNodesReclaimed
	s.TreeBytesReclaimed += o.TreeBytesReclaimed
}

// GC runs a full engine GC pass: every fully tombstoned page is examined, not
// just the incremental window. Tests and operational tooling use it to force
// reclamation without waiting for write traffic.
func (c *Collection) GC() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i <= len(c.pages)/gcPagesPerBatch; i++ {
		c.gcLocked()
	}
}

// COWBytesCopied returns the lifetime count of record bytes duplicated by
// page copies. It reads a single atomic, so a traced bulk write can sample
// it around the batch to attribute copy cost to its span without touching
// the collection mutex.
func (c *Collection) COWBytesCopied() int64 { return c.cowBytesCopied.Load() }
