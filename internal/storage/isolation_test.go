package storage

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
)

// isolationSeed builds a collection of n docs {_id, g, v, tag} with an index
// on g.
func isolationSeed(t *testing.T, n int) *Collection {
	t.Helper()
	c := NewCollection("iso")
	ops := make([]WriteOp, n)
	for i := 0; i < n; i++ {
		ops[i] = InsertWriteOp(bson.D(bson.IDKey, i, "g", i%5, "v", i, "tag", "orig"))
	}
	if res := c.BulkWrite(ops, BulkOptions{Ordered: true}); res.FirstError() != nil {
		t.Fatal(res.FirstError())
	}
	if _, err := c.EnsureIndexDoc(bson.D("g", 1), false); err != nil {
		t.Fatal(err)
	}
	return c
}

// findAt is FindWithPlan over the version s pins instead of the current one:
// the cursor takes a pin of its own, so s stays pinned.
func findAt(s *Snapshot, filter *bson.Doc, opts FindOptions) ([]*bson.Doc, Plan, error) {
	m, err := query.Compile(filter)
	if err != nil {
		return nil, Plan{}, err
	}
	opts.BatchSize = -1
	cur, err := s.coll.pin(s.v).cursor(m, opts)
	if err != nil {
		return nil, Plan{}, err
	}
	docs, err := cur.All()
	return docs, cur.Plan(), err
}

// cloneAll deep-copies a result set so later comparisons are immune to any
// aliasing with stored state.
func cloneAll(docs []*bson.Doc) []*bson.Doc {
	out := make([]*bson.Doc, len(docs))
	for i, d := range docs {
		out[i] = d.Clone()
	}
	return out
}

// assertDrainedEquals drains cur and requires the result to match want
// exactly — same documents, same order, same contents.
func assertDrainedEquals(t *testing.T, cur *Cursor, want []*bson.Doc, label string) {
	t.Helper()
	got, err := cur.All()
	if err != nil {
		t.Fatalf("%s: drain: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: drained %d docs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: doc %d differs:\n got  %s\n want %s", label, i, got[i], want[i])
		}
	}
}

// TestCursorIsolationInterleavedWrites is the equivalence test of the MVCC
// contract: a cursor opened before a storm of inserts, updates, deletes and
// a compaction drains exactly the at-open document set with the at-open
// contents.
func TestCursorIsolationInterleavedWrites(t *testing.T) {
	const n = 300
	c := isolationSeed(t, n)

	want, err := c.Find(nil, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want = cloneAll(want)

	cur, err := c.FindCursor(nil, FindOptions{BatchSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	// The cursor exposes its pinned snapshot, and the plan reports the same
	// version.
	if cur.Snapshot() == nil || cur.Snapshot().Version() != cur.Plan().SnapshotVersion {
		t.Fatalf("cursor snapshot %v does not match plan %s", cur.Snapshot(), cur.Plan())
	}
	// Consume one batch, then interleave every kind of write between the
	// remaining batches.
	got := append([]*bson.Doc(nil), cloneAll(cur.NextBatch())...)

	// Updates must not change the contents the open cursor observes.
	if _, err := c.UpdateMany(bson.D("g", 2), bson.D("$set", bson.D("tag", "rewritten"), "$inc", bson.D("v", 1000))); err != nil {
		t.Fatal(err)
	}
	// Inserts after open are invisible.
	for i := n; i < n+50; i++ {
		if _, err := c.Insert(bson.D(bson.IDKey, i, "g", i%5, "v", i, "tag", "late")); err != nil {
			t.Fatal(err)
		}
	}
	got = append(got, cloneAll(cur.NextBatch())...)
	// Deletes after open are invisible too — including enough of them to
	// trigger a tombstone compaction that rewrites the record array.
	if _, err := c.Delete(bson.D("g", bson.D("$in", []any{0, 1, 3})), true); err != nil {
		t.Fatal(err)
	}
	// An index build mid-drain must not perturb the scan either.
	if _, err := c.EnsureIndexDoc(bson.D("tag", 1), false); err != nil {
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
		t.Fatalf("cursor drained %d docs, want the %d at-open docs", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("doc %d differs from at-open state:\n got  %s\n want %s", i, got[i], want[i])
		}
	}

	// A fresh scan sees the post-storm state: 300 - 180 deleted + 50 late.
	after, err := c.Find(nil, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != c.Count() {
		t.Fatalf("fresh scan %d docs, Count %d", len(after), c.Count())
	}
	for _, d := range after {
		g, _ := d.Get("g")
		if bson.Compare(g, 2) == 0 {
			if tag, _ := d.Get("tag"); tag != "rewritten" && tag != "late" {
				t.Fatalf("post-storm doc missed the update: %s", d)
			}
		}
	}
}

// TestIndexScanCursorIsolation pins the same contract for index-backed
// cursors: the position list and the pinned records come from one version,
// so documents updated out of (or deleted from) the matching set after open
// still drain with their at-open contents.
func TestIndexScanCursorIsolation(t *testing.T) {
	c := isolationSeed(t, 200)

	want, err := c.Find(bson.D("g", 3), FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want = cloneAll(want)

	cur, err := c.FindCursor(bson.D("g", 3), FindOptions{BatchSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cur.Plan().IndexUsed != "g_1" {
		t.Fatalf("expected an index scan, plan = %s", cur.Plan())
	}

	// Move half the matching docs out of the group, delete others, add new
	// members; none of it may leak into the open cursor.
	if _, err := c.Update(query.UpdateSpec{
		Query:  bson.D("g", 3, "v", bson.D("$lt", 100)),
		Update: bson.D("$set", bson.D("g", 99)),
		Multi:  true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(bson.D("g", 3, "v", bson.D("$gte", 150)), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Insert(bson.D(bson.IDKey, 1000+i, "g", 3, "v", 1000+i, "tag", "late")); err != nil {
			t.Fatal(err)
		}
	}

	assertDrainedEquals(t, cur, want, "index scan")
}

// TestSnapshotHandleIsolation exercises the first-class Snapshot API: a
// pinned snapshot's Count/Docs/Scan/LastLSN stay frozen while the
// collection moves on, and successive snapshots observe monotonically
// increasing versions.
func TestSnapshotHandleIsolation(t *testing.T) {
	c := isolationSeed(t, 50)
	snap := c.Snapshot()
	v1 := snap.Version()
	if snap.Collection() != "iso" {
		t.Fatalf("snapshot collection %q", snap.Collection())
	}
	if snap.Count() != 50 {
		t.Fatalf("snapshot count %d", snap.Count())
	}
	size1 := snap.DataSize()
	if size1 != c.DataSize() || size1 <= 0 {
		t.Fatalf("snapshot data size %d, collection %d", size1, c.DataSize())
	}
	wantDocs := cloneAll(snap.Docs())

	if _, err := c.Delete(nil, true); err != nil {
		t.Fatal(err)
	}
	if c.Count() != 0 {
		t.Fatalf("live count %d after delete-all", c.Count())
	}
	if snap.Count() != 50 || len(snap.Docs()) != 50 || snap.DataSize() != size1 {
		t.Fatalf("pinned snapshot drifted: count=%d docs=%d size=%d", snap.Count(), len(snap.Docs()), snap.DataSize())
	}
	for i, d := range snap.Docs() {
		if !d.Equal(wantDocs[i]) {
			t.Fatalf("snapshot doc %d changed: %s", i, d)
		}
	}
	snap2 := c.Snapshot()
	if snap2.Version() <= v1 {
		t.Fatalf("version did not advance: %d then %d", v1, snap2.Version())
	}
	if snap2.Count() != 0 {
		t.Fatalf("fresh snapshot count %d", snap2.Count())
	}
	if got := len(snap.Indexes()); got != 1 {
		t.Fatalf("pinned snapshot has %d index defs, want 1", got)
	}
}

// TestCursorIsolationAcrossDrop checks the strongest case: the whole
// collection is emptied mid-drain and the cursor still serves its pinned
// version to exhaustion.
func TestCursorIsolationAcrossDrop(t *testing.T) {
	c := isolationSeed(t, 120)
	want, err := c.Find(nil, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want = cloneAll(want)
	cur, err := c.FindCursor(nil, FindOptions{BatchSize: 11})
	if err != nil {
		t.Fatal(err)
	}
	first := cloneAll(cur.NextBatch())
	if err := c.ReplaceContents(nil); err != nil {
		t.Fatal(err)
	}
	rest, err := cur.All()
	if err != nil {
		t.Fatal(err)
	}
	got := append(first, cloneAll(rest)...)
	if len(got) != len(want) {
		t.Fatalf("drained %d docs across an empty replacement, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("doc %d differs after Drop: %s", i, got[i])
		}
	}
	if c.Count() != 0 {
		t.Fatalf("dropped collection count = %d", c.Count())
	}
}

// TestPlanSnapshotFields checks explain surfaces the MVCC fields: every
// collection-backed scan reports the pinned version and snapshot isolation,
// and versions advance with commits.
func TestPlanSnapshotFields(t *testing.T) {
	c := isolationSeed(t, 10)
	_, plan1, err := c.FindWithPlan(nil, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan1.Isolation != IsolationSnapshot {
		t.Fatalf("isolation = %q, want %q", plan1.Isolation, IsolationSnapshot)
	}
	if plan1.SnapshotVersion <= 0 {
		t.Fatalf("snapshot version = %d", plan1.SnapshotVersion)
	}
	if s := plan1.String(); !strings.Contains(s, fmt.Sprintf("snapshot=%d", plan1.SnapshotVersion)) {
		t.Fatalf("plan string %q misses snapshot version", s)
	}
	if _, err := c.Insert(bson.D(bson.IDKey, 1000)); err != nil {
		t.Fatal(err)
	}
	_, plan2, err := c.FindWithPlan(nil, FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan2.SnapshotVersion <= plan1.SnapshotVersion {
		t.Fatalf("version did not advance: %d then %d", plan1.SnapshotVersion, plan2.SnapshotVersion)
	}
	// Sorted queries materialize but keep the scan's snapshot fields.
	_, plan3, err := c.FindWithPlan(nil, FindOptions{Sort: query.MustParseSort(bson.D("v", 1))})
	if err != nil {
		t.Fatal(err)
	}
	if plan3.SnapshotVersion != plan2.SnapshotVersion || plan3.Isolation != IsolationSnapshot {
		t.Fatalf("sorted plan lost snapshot fields: %+v", plan3)
	}
}

// TestHintUnknownIndex pins the storage-layer contract: a hint naming no
// index fails with ErrUnknownIndex instead of silently scanning, on both
// the slice and cursor paths, with or without a filter; a hint naming a
// real index that cannot narrow the filter still degrades to a collection
// scan, as before.
func TestHintUnknownIndex(t *testing.T) {
	c := isolationSeed(t, 20)

	_, err := c.Find(bson.D("g", 1), FindOptions{Hint: "nope_1"})
	var unknown *ErrUnknownIndex
	if !errors.As(err, &unknown) {
		t.Fatalf("Find with bad hint: %v", err)
	}
	if unknown.Collection != "iso" || unknown.Hint != "nope_1" {
		t.Fatalf("error fields: %+v", unknown)
	}
	if _, err := c.FindCursor(nil, FindOptions{Hint: "nope_1"}); !errors.As(err, &unknown) {
		t.Fatalf("FindCursor with bad hint and nil filter: %v", err)
	}
	if _, _, err := c.FindWithPlan(bson.D("v", 3), FindOptions{Hint: "missing"}); !errors.As(err, &unknown) {
		t.Fatalf("FindWithPlan with bad hint: %v", err)
	}

	// A real hint is honoured.
	docs, plan, err := c.FindWithPlan(bson.D("g", 1), FindOptions{Hint: "g_1"})
	if err != nil || plan.IndexUsed != "g_1" {
		t.Fatalf("good hint: %v, plan %s", err, plan)
	}
	if len(docs) != 4 {
		t.Fatalf("good hint returned %d docs", len(docs))
	}
	// A real hint that cannot narrow the filter degrades to a collection
	// scan rather than failing.
	_, plan, err = c.FindWithPlan(bson.D("v", 3), FindOptions{Hint: "g_1"})
	if err != nil || plan.IndexUsed != "" {
		t.Fatalf("unusable hint: %v, plan %s", err, plan)
	}
}
