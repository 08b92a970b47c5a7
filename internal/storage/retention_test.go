package storage

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"docstore/internal/bson"
	"docstore/internal/query"
)

// TestStuckCursorRetentionGauges is the stuck-cursor scenario the engine
// gauges exist for: a client opens a cursor and stops draining it, a write
// stream keeps publishing new versions, and the pinned snapshot silently
// retains the superseded state. The gauges must make that retention visible
// while the cursor lives, and drop it the moment the cursor dies.
func TestStuckCursorRetentionGauges(t *testing.T) {
	c := NewCollection("events")
	const docs = 2000
	for i := 0; i < docs; i++ {
		if _, err := c.Insert(bson.D(bson.IDKey, fmt.Sprintf("doc-%d", i), "v", 0)); err != nil {
			t.Fatal(err)
		}
	}

	// The stuck cursor: opened, partially drained, never closed.
	cur, err := c.FindCursor(nil, FindOptions{BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !cur.HasNext() {
		t.Fatal("cursor empty")
	}
	if doc := cur.Next(); doc == nil {
		t.Fatal("cursor returned no first document")
	}

	// A single-doc update stream: every batch publishes a fresh version the
	// cursor's pin cannot observe but does keep alive.
	const updates = 10000
	for i := 1; i <= updates; i++ {
		spec := query.UpdateSpec{
			Query:  bson.D(bson.IDKey, "doc-0"),
			Update: bson.D("$set", bson.D("v", i)),
		}
		res, err := c.Update(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Modified != 1 {
			t.Fatalf("update %d modified %d docs, want 1", i, res.Modified)
		}
	}

	st := c.EngineStats()
	if st.LiveVersions != 2 {
		t.Fatalf("LiveVersions = %d with a stuck cursor, want 2: the current version and the pinned one", st.LiveVersions)
	}
	if st.PinnedSnapshots != 1 {
		t.Fatalf("PinnedSnapshots = %d with a stuck cursor, want 1", st.PinnedSnapshots)
	}
	if st.COWBytesCopied <= 0 || st.PagesCopied <= 0 {
		t.Fatalf("COWBytesCopied = %d, PagesCopied = %d after %d COW updates, want both > 0",
			st.COWBytesCopied, st.PagesCopied, updates)
	}
	// The paging win: each update copied one page, not the collection. With
	// docs spanning several pages, shared must dominate copied per batch.
	if st.COWBytesShared <= st.COWBytesCopied {
		t.Fatalf("COWBytesShared = %d <= COWBytesCopied = %d: page COW should share the untouched pages",
			st.COWBytesShared, st.COWBytesCopied)
	}

	// The cursor dies, and with it the retention.
	cur.Close()
	st = c.EngineStats()
	if st.LiveVersions != 1 {
		t.Fatalf("LiveVersions = %d after cursor close, want 1", st.LiveVersions)
	}
	if st.PinnedSnapshots != 0 {
		t.Fatalf("PinnedSnapshots = %d after cursor close, want 0", st.PinnedSnapshots)
	}

	// The collection itself is unharmed: the update stream's final value is
	// what a fresh read sees.
	doc := c.FindID("doc-0")
	if doc == nil {
		t.Fatal("doc-0 missing after update stream")
	}
	if v, _ := doc.Get("v"); v != int64(updates) && v != updates {
		t.Fatalf("doc-0 v = %v after %d updates, want %d", v, updates, updates)
	}
}

// TestStressPageBoundaryCOW hammers the records straddling page boundaries
// with concurrent single-doc updates while readers scan and point-read the
// collection. Each update sets two fields to the same value in one batch, so
// any torn read — a scan observing a half-applied update across a page copy —
// shows up as a mismatch. Run under -race in CI.
func TestStressPageBoundaryCOW(t *testing.T) {
	c := NewCollection("boundary")
	const docs = 4*pageSize + 6 // a bit over four pages
	for i := 0; i < docs; i++ {
		if _, err := c.Insert(bson.D(bson.IDKey, fmt.Sprintf("doc-%d", i), "v", 0, "check", 0)); err != nil {
			t.Fatal(err)
		}
	}
	// The positions on either side of every page edge, plus the first and
	// last record.
	var targets []string
	for pi := 1; pi <= 4; pi++ {
		edge := pi * pageSize
		targets = append(targets, fmt.Sprintf("doc-%d", edge-1), fmt.Sprintf("doc-%d", edge))
	}
	targets = append(targets, "doc-0", fmt.Sprintf("doc-%d", docs-1))

	const (
		writers        = 4
		readers        = 4
		opsPerWriter   = 200
		scansPerReader = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= opsPerWriter; i++ {
				id := targets[(w+i)%len(targets)]
				n := w*opsPerWriter + i
				spec := query.UpdateSpec{
					Query:  bson.D(bson.IDKey, id),
					Update: bson.D("$set", bson.D("v", n, "check", n)),
				}
				if _, err := c.Update(spec); err != nil {
					t.Errorf("update %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < scansPerReader; i++ {
				if i%2 == 0 {
					s := c.Snapshot()
					seen := 0
					s.Scan(func(doc *bson.Doc) bool {
						seen++
						v, _ := doc.Get("v")
						chk, _ := doc.Get("check")
						if v != chk {
							t.Errorf("torn read: v = %v, check = %v", v, chk)
						}
						return true
					})
					s.Release()
					if seen != docs {
						t.Errorf("scan saw %d docs, want %d", seen, docs)
					}
					continue
				}
				id := targets[(r+i)%len(targets)]
				doc := c.FindID(id)
				if doc == nil {
					t.Errorf("findID %s: missing", id)
					continue
				}
				v, _ := doc.Get("v")
				chk, _ := doc.Get("check")
				if v != chk {
					t.Errorf("torn point read %s: v = %v, check = %v", id, v, chk)
				}
			}
		}(r)
	}
	wg.Wait()
	// Every reader released what it pinned, whichever version it was.
	if st := c.EngineStats(); st.LiveVersions != 1 || st.PinnedSnapshots != 0 {
		t.Fatalf("LiveVersions = %d, PinnedSnapshots = %d with no snapshot held, want 1 and 0",
			st.LiveVersions, st.PinnedSnapshots)
	}
}

// TestLatePinSurvivesPageRewrite pins a version late — loaded before a run
// of writes publishes past it, registered after — then rewrites every page
// the version holds and collects: the snapshot must still read every document
// as it was. Nothing in the engine tracks the version; the snapshot's own
// reference keeps its pages alive.
func TestLatePinSurvivesPageRewrite(t *testing.T) {
	c := NewCollection("latepin")
	const docs = 3 * pageSize
	for i := 0; i < docs; i++ {
		if _, err := c.Insert(bson.D(bson.IDKey, fmt.Sprintf("doc-%d", i), "v", 0)); err != nil {
			t.Fatal(err)
		}
	}

	// The stalled reader: current loaded, pin not yet registered, while
	// writers publish past it.
	old := c.current.Load()
	for i := 1; i <= 50; i++ {
		spec := query.UpdateSpec{
			Query:  bson.D(bson.IDKey, "doc-0"),
			Update: bson.D("$set", bson.D("v", i)),
		}
		if _, err := c.Update(spec); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.pin(old)

	// Rewrite every page with the late pin the oldest, then collect.
	for i := 0; i < docs; i++ {
		spec := query.UpdateSpec{
			Query:  bson.D(bson.IDKey, fmt.Sprintf("doc-%d", i)),
			Update: bson.D("$set", bson.D("v", -1)),
		}
		if _, err := c.Update(spec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()

	for i := 0; i < docs; i++ {
		doc := snap.FindID(fmt.Sprintf("doc-%d", i))
		if doc == nil {
			t.Fatalf("doc-%d vanished from the pinned snapshot", i)
		}
		if v, _ := doc.Get("v"); v != int64(0) && v != 0 {
			t.Fatalf("doc-%d v = %v through the pinned snapshot, want the pre-update 0", i, v)
		}
	}
	if n := len(snap.Docs()); n != docs {
		t.Fatalf("the pinned snapshot scans %d docs, want %d", n, docs)
	}

	snap.Release()
	st := c.EngineStats()
	if st.LiveVersions != 1 || st.PinnedSnapshots != 0 {
		t.Fatalf("LiveVersions = %d, PinnedSnapshots = %d after release, want 1 and 0",
			st.LiveVersions, st.PinnedSnapshots)
	}
}

// TestSupersededPageReachability holds the engine to leaving superseded
// pages to Go's collector: a page an update copied stays reachable while a
// snapshot pins a version that holds it, and nothing else holds it — no free
// list, no retired list — once that snapshot is released and a write has
// published past it.
func TestSupersededPageReachability(t *testing.T) {
	c := NewCollection("reach")
	for i := 0; i < 2*pageSize; i++ {
		if _, err := c.Insert(bson.D(bson.IDKey, i, "v", 0)); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	page0 := weak.Make(snap.v.pages[0])
	if _, err := c.UpdateOne(bson.D(bson.IDKey, 0), bson.D("$inc", bson.D("v", 1))); err != nil {
		t.Fatal(err)
	}
	if c.current.Load().pages[0] == page0.Value() {
		t.Fatal("the update did not copy page 0")
	}

	runtime.GC()
	if page0.Value() == nil {
		t.Fatal("the superseded page was freed while a snapshot pins its version")
	}
	if v, _ := snap.FindID(0).Get("v"); v != int64(0) {
		t.Fatalf("the pinned snapshot reads v = %v, want 0", v)
	}

	snap.Release()
	if _, err := c.UpdateOne(bson.D(bson.IDKey, 1), bson.D("$inc", bson.D("v", 1))); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if page0.Value() != nil {
		t.Fatal("the superseded page is still reachable after its last snapshot was released")
	}
	// Reading the collection here keeps it reachable through the collection
	// above, so a page it still held would have survived it.
	if v, _ := c.FindID(0).Get("v"); v != int64(1) {
		t.Fatalf("doc 0 reads v = %v, want 1", v)
	}
}

// TestPageIs4KiB pins a page at 256 records of 16 B and nothing else: which
// batch owns a page is the writer's to know, kept beside the spine, and a
// field for it in the page would take it past 4 KiB.
func TestPageIs4KiB(t *testing.T) {
	if got := unsafe.Sizeof(page{}); got != 4096 {
		t.Fatalf("a page is %d B, want 4096", got)
	}
}

// TestPointUpdateAllocates pins what one $inc by _id costs on a collection of
// ten pages, where it copies one page: the page copy (4,096 B, which with the
// 8 B header Go gives an object over 512 B that holds pointers still lands in
// its 4,864 B size class), the spine copy (ten pointers, 80 B)
// and the update's own allocations — the filter's plan, the document's
// shallow copy, the version and its frozen index set, the result — 28
// allocations and 6,014 B in all. A change that makes the update cheaper
// lowers these bounds.
func TestPointUpdateAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("the planner's scratch is pooled; see raceEnabled")
	}
	const (
		docs      = 10 * pageSize
		maxAllocs = 28
		maxBytes  = 6080
		runs      = 200
	)
	c := NewCollection("alloc")
	ops := make([]WriteOp, docs)
	for i := range ops {
		ops[i] = InsertWriteOp(bson.D(bson.IDKey, i, "v", 0))
	}
	if res := c.BulkWrite(ops, BulkOptions{Ordered: true}); res.FirstError() != nil {
		t.Fatal(res.FirstError())
	}
	i := 0
	update := func() {
		// A page further each time, so every update copies a page the
		// previous version published.
		i++
		if _, err := c.UpdateOne(bson.D(bson.IDKey, (i*pageSize+7)%docs), bson.D("$inc", bson.D("v", 1))); err != nil {
			t.Fatal(err)
		}
	}
	update()
	pagesBefore := c.EngineStats().PagesCopied
	allocs := testing.AllocsPerRun(runs, update)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < runs; k++ {
		update()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if copied := c.EngineStats().PagesCopied - pagesBefore; copied != 2*runs+1 {
		t.Fatalf("%d updates copied %d pages, want one each", 2*runs+1, copied)
	}
	t.Logf("one $inc: %.0f allocations, %d B", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("one $inc allocated %.0f times and %d B, want at most %d and %d B", allocs, bytes, maxAllocs, maxBytes)
	}
}
