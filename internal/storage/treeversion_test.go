package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
)

// TestIndexBackedCursorIsolationAcrossIndexDDL pins the version-owned index
// contract: an open index-backed cursor drains exactly its at-open set even
// when the very index serving it is dropped mid-drain, another index is
// built, and the matching set is rewritten. The cursor's position list and
// records both come from one pinned version whose frozen trees no DDL can
// touch.
func TestIndexBackedCursorIsolationAcrossIndexDDL(t *testing.T) {
	c := isolationSeed(t, 200)

	want, err := c.Find(bson.D("g", 3), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want = cloneAll(want)

	pinned := c.Snapshot()
	defer pinned.Release()
	cur, err := c.FindCursor(bson.D("g", 3), FindOptions{BatchSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cur.Plan().IndexUsed != "g_1" || cur.Plan().SnapshotVersion != pinned.Version() {
		t.Fatalf("expected an index scan at version %d, plan = %s", pinned.Version(), cur.Plan())
	}
	got := cloneAll(cur.NextBatch())

	// Drop the index serving the open cursor, build a different one, and
	// rewrite the matching set.
	if !c.DropIndex("g_1") {
		t.Fatal("DropIndex g_1 reported missing")
	}
	if _, err := c.EnsureIndexDoc(bson.D("v", 1), false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdateMany(bson.D("g", 3), bson.D("$set", bson.D("tag", "rewritten"))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(bson.D("g", 3, "v", bson.D("$gte", 100)), true); err != nil {
		t.Fatal(err)
	}

	for {
		b := cur.NextBatch()
		if len(b) == 0 {
			break
		}
		got = append(got, cloneAll(b)...)
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d docs across index DDL, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("doc %d differs after index DDL:\n got  %s\n want %s", i, got[i], want[i])
		}
	}

	// A fresh hint on the dropped index fails — it is gone from the current
	// version — while the same hint over a snapshot of the pre-drop version
	// still plans against that version's frozen index set.
	var unknown *ErrUnknownIndex
	if _, err := c.Find(bson.D("g", 3), FindOptions{Hint: "g_1"}); !errors.As(err, &unknown) {
		t.Fatalf("hint on dropped index: %v, want ErrUnknownIndex", err)
	}
	docs, plan, err := findAt(pinned, bson.D("g", 3), FindOptions{Hint: "g_1"})
	if err != nil {
		t.Fatalf("hint on dropped index at pinned version: %v", err)
	}
	if plan.IndexUsed != "g_1" || plan.SnapshotVersion != pinned.Version() {
		t.Fatalf("pinned-version plan = %s, want IXSCAN g_1 at version %d", plan, pinned.Version())
	}
	if len(docs) != len(want) {
		t.Fatalf("pinned-version query returned %d docs, want %d", len(docs), len(want))
	}
}

// TestPinnedSnapshotSession is the pinned-session contract: a session pins
// one snapshot, then issues its queries over it while writes land; every
// result describes the pinned committed state, planned through that
// version's frozen trees, while a query of the collection sees the new one.
func TestPinnedSnapshotSession(t *testing.T) {
	c := isolationSeed(t, 100)

	session := c.Snapshot()
	v := session.Version()
	want, _, err := findAt(session, bson.D("g", 1), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want = cloneAll(want)

	// Writes land between the session's queries.
	if _, err := c.UpdateMany(bson.D("g", 1), bson.D("$set", bson.D("tag", "moved"), "$inc", bson.D("v", 500))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := c.Insert(bson.D(bson.IDKey, 5000+i, "g", 1, "v", i, "tag", "late")); err != nil {
			t.Fatal(err)
		}
	}

	// A follow-up query of the session: same result set, index plan from
	// the pinned version's frozen trees.
	docs, plan, err := findAt(session, bson.D("g", 1), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.SnapshotVersion != v || plan.Isolation != IsolationSnapshot {
		t.Fatalf("session plan = %+v, want version %d at snapshot isolation", plan, v)
	}
	if plan.IndexUsed != "g_1" {
		t.Fatalf("session plan = %s, want IXSCAN g_1", plan)
	}
	if len(docs) != len(want) {
		t.Fatalf("session query returned %d docs, want the %d at-pin docs", len(docs), len(want))
	}
	for i := range docs {
		if !docs[i].Equal(want[i]) {
			t.Fatalf("session doc %d drifted:\n got  %s\n want %s", i, docs[i], want[i])
		}
	}
	// A current-version read meanwhile sees the new state.
	now, err := c.Find(bson.D("g", 1), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(now) != len(want)+30 {
		t.Fatalf("current read returned %d docs, want %d", len(now), len(want)+30)
	}

	// The session's queries took pins of their own and gave them back: only
	// the session's pin is left, and releasing it leaves none.
	if st := c.EngineStats(); st.PinnedSnapshots != 1 || st.LiveVersions != 2 {
		t.Fatalf("PinnedSnapshots = %d, LiveVersions = %d with the session open, want 1 and 2", st.PinnedSnapshots, st.LiveVersions)
	}
	session.Release()
	if st := c.EngineStats(); st.PinnedSnapshots != 0 || st.LiveVersions != 1 {
		t.Fatalf("PinnedSnapshots = %d, LiveVersions = %d after release, want 0 and 1", st.PinnedSnapshots, st.LiveVersions)
	}
}

// TestStressTreeSplitLockFreePlanners hammers the persistent index trees
// with writers inserting and deleting pairs of documents around ever-growing
// key ranges — forcing node splits, merges and path copies — while readers
// plan and run index-backed queries with zero locking. Each writer batch
// inserts or deletes exactly two documents sharing one indexed key, so any
// reader observing a half-applied batch — a position list from one version
// against records of another — shows up as an odd count. Run under -race in
// CI.
func TestStressTreeSplitLockFreePlanners(t *testing.T) {
	c := NewCollection("trees")
	// Seed enough distinct keys for a multi-level tree so writer traffic
	// splits and merges interior nodes, not just the root.
	const seedKeys = 1024
	ops := make([]WriteOp, seedKeys)
	for i := 0; i < seedKeys; i++ {
		ops[i] = InsertWriteOp(bson.D(bson.IDKey, fmt.Sprintf("seed-%d", i), "k", i, "pair", -1))
	}
	if res := c.BulkWrite(ops, BulkOptions{Ordered: true}); res.FirstError() != nil {
		t.Fatal(res.FirstError())
	}
	if _, err := c.EnsureIndexDoc(bson.D("k", 1), false); err != nil {
		t.Fatal(err)
	}

	const (
		writers      = 4
		readers      = 4
		opsPerWriter = 150
		reads        = 120
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := 100000 * (w + 1)
			for i := 0; i < opsPerWriter; i++ {
				k := base + i
				pair := []WriteOp{
					InsertWriteOp(bson.D(bson.IDKey, fmt.Sprintf("w%d-%d-a", w, i), "k", k, "pair", i)),
					InsertWriteOp(bson.D(bson.IDKey, fmt.Sprintf("w%d-%d-b", w, i), "k", k, "pair", i)),
				}
				if res := c.BulkWrite(pair, BulkOptions{Ordered: true}); res.FirstError() != nil {
					t.Errorf("writer %d insert pair %d: %v", w, i, res.FirstError())
					return
				}
				if i%3 == 2 {
					// Delete a whole earlier pair in one batch: both docs
					// share k, so the pair leaves atomically too.
					if res := c.BulkWrite([]WriteOp{DeleteWriteOp(bson.D("k", base+i-2), true)}, BulkOptions{Ordered: true}); res.FirstError() != nil {
						t.Errorf("writer %d delete pair: %v", w, res.FirstError())
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				w := (r + i) % writers
				base := 100000 * (w + 1)
				k := base + (i % opsPerWriter)
				docs, plan, err := c.FindWithPlan(bson.D("k", k), FindOptions{})
				if err != nil {
					t.Errorf("reader %d point: %v", r, err)
					return
				}
				if plan.IndexUsed != "k_1" {
					t.Errorf("reader %d point plan = %s, want IXSCAN k_1", r, plan)
					return
				}
				if len(docs)%2 != 0 {
					t.Errorf("reader %d saw a torn pair: %d docs for k=%d", r, len(docs), k)
					return
				}
				// Range scan across the writer's whole band: pairs in, pairs
				// out — any snapshot must hold an even count.
				docs, plan, err = c.FindWithPlan(
					bson.D("k", bson.D("$gte", base, "$lt", base+opsPerWriter)), FindOptions{})
				if err != nil {
					t.Errorf("reader %d range: %v", r, err)
					return
				}
				if plan.IndexUsed != "k_1" {
					t.Errorf("reader %d range plan = %s, want IXSCAN k_1", r, plan)
					return
				}
				if len(docs)%2 != 0 {
					t.Errorf("reader %d range saw odd count %d over writer %d's band", r, len(docs), w)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestIndexTreeRetentionGauges is the stuck-cursor scenario for index
// memory: a pinned snapshot keeps superseded tree nodes alive, and the
// tree-COW gauges make the copying visible.
func TestIndexTreeRetentionGauges(t *testing.T) {
	c := NewCollection("treegauges")
	const docs = 800
	ops := make([]WriteOp, docs)
	for i := 0; i < docs; i++ {
		ops[i] = InsertWriteOp(bson.D(bson.IDKey, fmt.Sprintf("doc-%d", i), "g", i%16, "v", 0))
	}
	if res := c.BulkWrite(ops, BulkOptions{Ordered: true}); res.FirstError() != nil {
		t.Fatal(res.FirstError())
	}
	if _, err := c.EnsureIndexDoc(bson.D("g", 1), false); err != nil {
		t.Fatal(err)
	}

	base := c.EngineStats()

	// The stuck cursor: an index-backed scan, opened and abandoned.
	cur, err := c.FindCursor(bson.D("g", 3), FindOptions{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cur.Plan().IndexUsed != "g_1" {
		t.Fatalf("plan = %s, want IXSCAN g_1", cur.Plan())
	}
	if !cur.HasNext() {
		t.Fatal("cursor empty")
	}
	cur.Next()

	// An update stream on the indexed field: every batch removes and
	// re-inserts keys, path-copying tree nodes the pinned version still
	// references.
	for i := 1; i <= 400; i++ {
		spec := query.UpdateSpec{
			Query:  bson.D(bson.IDKey, fmt.Sprintf("doc-%d", i%docs)),
			Update: bson.D("$set", bson.D("g", (i*7)%16, "v", i)),
		}
		if _, err := c.Update(spec); err != nil {
			t.Fatal(err)
		}
	}

	st := c.EngineStats()
	copied := st.TreeNodesCopied - base.TreeNodesCopied
	if copied <= 0 || st.TreeBytesCopied <= base.TreeBytesCopied {
		t.Fatalf("TreeNodesCopied = %d, TreeBytesCopied = %d after an indexed update stream, want both rising",
			copied, st.TreeBytesCopied-base.TreeBytesCopied)
	}
	// Path copying shares the untouched subtrees, and the gauge proves it.
	if st.TreeBytesShared <= base.TreeBytesShared {
		t.Fatalf("TreeBytesShared stayed at %d under an indexed update stream, want rising", st.TreeBytesShared)
	}
	cur.Close()

	// The live index still answers correctly.
	docs3, plan, err := c.FindWithPlan(bson.D("g", 3), FindOptions{})
	if err != nil || plan.IndexUsed != "g_1" {
		t.Fatalf("post-close indexed read: %v, plan %s", err, plan)
	}
	for _, d := range docs3 {
		if g, _ := bson.AsInt(d.GetOr("g", nil)); g != 3 {
			t.Fatalf("post-close indexed read returned g=%v", g)
		}
	}
}
