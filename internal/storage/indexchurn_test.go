package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/index"
	"docstore/internal/query"
)

// Index entries — those of _id_ like those of the user-created indexes — are
// record positions, so every path that moves a document or a position has to
// move the entries with it. This file checks
// that from the outside: whatever random churn a collection has been
// through, an index-served find returns what a collection scan returns.

// Value domains of the churn documents, small so that keys collide, unique
// keys are refused now and then, and every index key can be enumerated.
const (
	churnG = 8    // g: non-unique, leads the compound index
	churnH = 4    // h: second field of the compound index
	churnU = 2000 // u: unique
)

var churnTags = []string{"a", "b", "c", "d", "e"}

// churnMaxSteps is the length of a full run.
const churnMaxSteps = 400

// churnIndexes are the index shapes under test.
var churnIndexes = []struct {
	spec   *bson.Doc
	unique bool
}{
	{bson.D("u", 1), true},
	{bson.D("g", 1), false},
	{bson.D("g", 1, "h", 1), false},
	{bson.D("tags", 1), false}, // multikey: tags is an array
	{bson.D("h", 1), false},    // a field that is missing, or [], now and then: both the null key
	// Compound keys over the array: leading, it is one key per element and the
	// index multikey; behind h it is one component, whole, and the index keeps
	// one key a document — a second index to intersect h by.
	{bson.D("tags", 1, "n", 1), false},
	{bson.D("h", 1, "tags", 1), false},
}

// churnFilters are the finds compared after every step and replayed against
// pinned versions; indexed says the planner must serve it from an index.
var churnFilters = []struct {
	filter  *bson.Doc
	indexed bool
}{
	{bson.D("g", 3), true},
	{bson.D("g", bson.D("$gte", 2, "$lt", 6)), true},
	{bson.D("g", bson.D("$in", bson.A(0, 7))), true},
	{bson.D("g", 5, "h", 1), true},
	{bson.D("tags", "c"), true},
	{bson.D("tags", bson.D("$in", bson.A("a", "b", "e"))), true}, // one document under several scanned keys
	{bson.D("u", 17), true},
	{bson.D("u", bson.D("$gte", 100, "$lte", 600)), true},
	{bson.D("n", bson.D("$gte", 3)), false},
	{bson.D(bson.IDKey, 11), true},
	{bson.D(bson.IDKey, bson.D("$in", bson.A(3, 11, 40, 40, 1<<40))), true},
	{bson.D(bson.IDKey, bson.D("$gte", 20, "$lt", 60)), true},
	{bson.D(bson.IDKey, 11, "g", 3), true},
	{bson.D(bson.IDKey, -1), true}, // no such document
	{bson.D("tags", "c", "n", 2), true},
	{bson.D("g", 3, "tags", "b"), true}, // a multikey index, compound or not, narrows nothing
	{bson.D("g", bson.D("$lte", 5), "h", 2), true},
}

// churnDoc builds a document over the small domains.
func churnDoc(r *rand.Rand, id int) *bson.Doc {
	tags := make([]any, r.Intn(4))
	for i := range tags {
		tags[i] = churnTags[r.Intn(len(churnTags))]
	}
	d := bson.D(bson.IDKey, id, "u", r.Intn(churnU), "g", r.Intn(churnG), "n", r.Intn(6), "tags", tags)
	if r.Intn(5) > 0 { // now and then h is missing and indexes as null
		d.Set("h", int64(r.Intn(churnH)))
	} else if id%3 == 0 {
		// Or an empty array: the null key again, in an index that stays
		// non-multikey — but {h: null} does not match it.
		d.Set("h", bson.A())
	}
	return d
}

// churnFilter picks a write filter: by _id, by each indexed field, by a
// compound prefix, or by the field no index covers.
func churnFilter(r *rand.Rand, nextID int) *bson.Doc {
	switch r.Intn(7) {
	case 0:
		return bson.D(bson.IDKey, r.Intn(nextID+1))
	case 1:
		return bson.D("g", r.Intn(churnG))
	case 2:
		return bson.D("g", r.Intn(churnG), "h", r.Intn(churnH))
	case 3:
		return bson.D("tags", churnTags[r.Intn(len(churnTags))])
	case 4:
		lo := r.Intn(churnU)
		return bson.D("u", bson.D("$gte", lo, "$lt", lo+r.Intn(200)))
	case 5:
		return bson.D("tags", bson.D("$in", bson.A(churnTags[r.Intn(len(churnTags))], churnTags[r.Intn(len(churnTags))])))
	default:
		return bson.D("n", r.Intn(6))
	}
}

// churnUpdate picks an update document: indexed fields (the unique one
// included, so some updates are refused), the multikey array, or the
// non-indexed counter.
func churnUpdate(r *rand.Rand) *bson.Doc {
	switch r.Intn(6) {
	case 0:
		return bson.D("$set", bson.D("g", r.Intn(churnG)))
	case 1:
		return bson.D("$set", bson.D("u", r.Intn(churnU)))
	case 2:
		return bson.D("$set", bson.D("tags", bson.A(churnTags[r.Intn(len(churnTags))], churnTags[r.Intn(len(churnTags))])))
	case 3:
		return bson.D("$set", bson.D("g", r.Intn(churnG), "h", r.Intn(churnH)))
	case 4:
		return bson.D("$unset", bson.D("h", ""))
	default:
		return bson.D("$inc", bson.D("n", 1))
	}
}

// churnStep applies one random mutation. Failed operations (a refused unique
// key, a duplicate _id) are part of the workload: what they leave behind must
// be as consistent as what a success leaves.
func churnStep(r *rand.Rand, c *Collection, nextID *int) {
	switch k := r.Intn(21); {
	case k < 6:
		_, _ = c.Insert(churnDoc(r, *nextID))
		*nextID++
	case k == 20:
		// An _id that leaves and comes back, at a new position.
		id := r.Intn(*nextID + 1)
		_, _ = c.DeleteID(id)
		_, _ = c.Insert(churnDoc(r, id))
	case k < 8:
		docs := make([]*bson.Doc, 1+r.Intn(120))
		for i := range docs {
			docs[i] = churnDoc(r, *nextID)
			*nextID++
		}
		c.BulkWrite(InsertOps(docs), BulkOptions{})
	case k < 13:
		spec := query.UpdateSpec{Query: churnFilter(r, *nextID), Update: churnUpdate(r), Multi: r.Intn(2) == 0}
		if r.Intn(4) == 0 {
			// An upsert that pins its _id, so a replay inserts the same document.
			spec.Query = bson.D(bson.IDKey, *nextID, "g", r.Intn(churnG))
			spec.Upsert = true
			*nextID++
		}
		_, _ = c.Update(spec)
	case k < 18:
		_, _ = c.Delete(churnFilter(r, *nextID), r.Intn(3) == 0)
	case k < 19:
		// A mixed batch: tombstones, updates and appends under one publish.
		c.BulkWrite([]WriteOp{
			DeleteWriteOp(churnFilter(r, *nextID), true),
			UpdateWriteOp(query.UpdateSpec{Query: churnFilter(r, *nextID), Update: churnUpdate(r), Multi: true}),
			InsertWriteOp(churnDoc(r, *nextID)),
		}, BulkOptions{})
		*nextID++
	default:
		forceCompact(c)
	}
}

// forceCompact compacts whatever tombstones there are, without waiting for
// them to outnumber the live records.
func forceCompact(c *Collection) {
	c.mu.Lock()
	c.compactLocked()
	c.publishLocked()
	c.mu.Unlock()
}

func sortByID(docs []*bson.Doc) []*bson.Doc {
	sort.Slice(docs, func(i, j int) bool { return bson.Compare(docs[i].ID(), docs[j].ID()) < 0 })
	return docs
}

// scanFind is the reference: the filter over every live record of the
// snapshot, no planner involved.
func scanFind(s *Snapshot, filter *bson.Doc) []*bson.Doc {
	m := query.MustCompile(filter)
	var out []*bson.Doc
	s.Scan(func(d *bson.Doc) bool {
		if m.Matches(d) {
			out = append(out, d)
		}
		return true
	})
	return sortByID(out)
}

// diffFind compares the planner's find at the given version with want and
// describes the first difference, or returns "".
func diffFind(c *Collection, version int64, filter *bson.Doc, indexed bool, want []*bson.Doc) string {
	got, plan, err := c.FindWithPlan(filter, FindOptions{AtVersion: version})
	if err != nil {
		return fmt.Sprintf("find %s at version %d: %v", filter, version, err)
	}
	if indexed && plan.IndexUsed == "" {
		return fmt.Sprintf("find %s planned %s, want an index scan", filter, plan)
	}
	sortByID(got)
	if len(got) != len(want) {
		return fmt.Sprintf("find %s (%s) returned %d documents, a collection scan %d", filter, plan, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Sprintf("find %s (%s) document %d:\n got  %s\n scan %s", filter, plan, i, got[i], want[i])
		}
	}
	return ""
}

// checkFindsMatchScan pins the current version and compares every churn
// filter, index-served, with the scan of the same version.
func checkFindsMatchScan(t *testing.T, c *Collection, step int) {
	t.Helper()
	s := c.Snapshot()
	defer s.Release()
	for _, f := range churnFilters {
		if d := diffFind(c, s.Version(), f.filter, f.indexed, scanFind(s, f.filter)); d != "" {
			t.Fatalf("step %d: %s", step, d)
		}
	}
}

// genValue draws an operand for field: what the anchor document holds there
// (so that conjunctions match something), a value from the field's domain or
// a little outside it, and now and then one of another type or null.
func genValue(r *rand.Rand, field string, anchor *bson.Doc, nextID int) any {
	if v, ok := anchor.Get(field); ok && r.Intn(2) == 0 {
		if arr, isArr := v.([]any); !isArr {
			return int(v.(int64))
		} else if len(arr) > 0 {
			return arr[r.Intn(len(arr))]
		}
	}
	switch k := r.Intn(30); {
	case k == 0:
		return nil
	case k == 1:
		return "c" // a string against the numeric fields, a tag against tags
	case k == 2:
		return r.Intn(8)
	}
	switch field {
	case "u":
		return r.Intn(churnU + 20)
	case "g":
		return r.Intn(churnG + 2)
	case "h":
		return r.Intn(churnH + 1)
	case "n":
		return r.Intn(7)
	case "tags":
		return churnTags[r.Intn(len(churnTags))]
	default:
		return r.Intn(nextID + 2)
	}
}

// genBounds draws a range condition: closed, open or half-open, one-sided,
// upside down, or with bounds of two types.
func genBounds(r *rand.Rand, field string, anchor *bson.Doc, nextID int) *bson.Doc {
	lo, hi := genValue(r, field, anchor, nextID), genValue(r, field, anchor, nextID)
	if l, ok := lo.(int); ok {
		if h, ok := hi.(int); ok && r.Intn(8) > 0 {
			// Mostly the right way up, and narrow on the wide domains.
			if l > h {
				l, h = h, l
			}
			if field == "u" || field == bson.IDKey {
				h = l + r.Intn(150)
			}
			lo, hi = l, h
		}
	}
	cond := bson.NewDoc(3)
	if k := r.Intn(8); k > 0 {
		cond.Set([]string{"$gte", "$gt"}[r.Intn(2)], lo)
	}
	if k := r.Intn(8); k > 0 || cond.Len() == 0 {
		cond.Set([]string{"$lte", "$lt"}[r.Intn(2)], hi)
	}
	return cond
}

// genCondition draws what a clause says about field.
func genCondition(r *rand.Rand, field string, anchor *bson.Doc, nextID int) any {
	values := func(n int) []any {
		vs := make([]any, n)
		for i := range vs {
			vs[i] = genValue(r, field, anchor, nextID)
		}
		if n > 1 && r.Intn(2) == 0 {
			vs[n-1] = vs[0] // a duplicate
		}
		return vs
	}
	switch r.Intn(10) {
	case 0, 1:
		return genValue(r, field, anchor, nextID)
	case 2:
		return bson.D("$eq", genValue(r, field, anchor, nextID))
	case 3, 4:
		return bson.D("$in", bson.A(values((1+r.Intn(10))%10)...)) // empty now and then
	case 5, 6, 7:
		return genBounds(r, field, anchor, nextID)
	case 8:
		// A bound beside an operator no constraint holds.
		cond := genBounds(r, field, anchor, nextID)
		switch r.Intn(3) {
		case 0:
			cond.Set("$ne", genValue(r, field, anchor, nextID))
		case 1:
			cond.Set("$exists", r.Intn(4) > 0)
		default:
			cond.Set("$nin", bson.A(values(2)...))
		}
		return cond
	default:
		return bson.D("$in", bson.A(values(2)...), "$gte", genValue(r, field, anchor, nextID))
	}
}

var genFields = []string{"u", "g", "g", "h", "tags", "n", bson.IDKey} // g leads two indexes, n none

// genFilter draws a conjunctive filter of one to four clauses, top-level or
// under $and (a field named twice always under $and), with an $or sibling
// now and then.
func genFilter(r *rand.Rand, anchor *bson.Doc, nextID int) *bson.Doc {
	n := 1 + r.Intn(4)
	clauses := make([]any, 0, n+1)
	flat, canFlatten := bson.NewDoc(n+1), true
	for i := 0; i < n; i++ {
		field := genFields[r.Intn(len(genFields))]
		cond := genCondition(r, field, anchor, nextID)
		clauses = append(clauses, bson.D(field, cond))
		canFlatten = canFlatten && !flat.Has(field)
		flat.Set(field, cond)
	}
	if r.Intn(5) == 0 {
		or := bson.A(
			bson.D("g", genCondition(r, "g", anchor, nextID)),
			bson.D(genFields[r.Intn(len(genFields))], genValue(r, "n", anchor, nextID)),
		)
		clauses = append(clauses, bson.D("$or", or))
		flat.Set("$or", or)
	}
	if canFlatten && r.Intn(2) == 0 {
		return flat
	}
	if r.Intn(4) == 0 && len(clauses) > 2 {
		// One level deeper.
		clauses = []any{clauses[0], bson.D("$and", bson.A(clauses[1:]...))}
	}
	return bson.D("$and", bson.A(clauses...))
}

// planFind runs the filter through the planner against the pinned version
// and walks the candidates the way Cursor.fill does, checking each against
// the plan's residual or — forced — against the whole filter.
func planFind(t *testing.T, s *Snapshot, m *query.Matcher, forceFull bool) ([]*bson.Doc, access) {
	t.Helper()
	acc, err := planEnv{coll: "churn", indexes: s.v.indexes}.plan(m, FindOptions{})
	if err != nil {
		t.Fatalf("plan %s: %v", m, err)
	}
	check := acc.residual
	if forceFull {
		check = m
	}
	var out []*bson.Doc
	visit := func(pos int) {
		if r := s.v.record(pos); pos < s.v.length && r != nil && !r.deleted && check.Matches(r.doc) {
			out = append(out, r.doc)
		}
	}
	if acc.index == "" {
		for pos := 0; pos < s.v.length; pos++ {
			visit(pos)
		}
	} else {
		for _, pos := range acc.positions {
			visit(int(pos))
		}
	}
	return out, acc
}

// genStats counts what the generated filters exercised, so that the test can
// tell a generator that stopped reaching the planner's branches.
type genStats struct {
	filters, matched, indexed, intersected, covered, residualNil, empty int
}

// checkGeneratedFilters draws filters and runs each three ways against the
// one pinned version: the whole filter over a collection scan (the
// specification), the plan with every candidate checked against the whole
// filter, and the plan with the candidates checked against its residual
// only. The last two must agree document for document, in order — and the
// engine's own cursor with them — and as sets with the first.
func checkGeneratedFilters(t *testing.T, r *rand.Rand, c *Collection, nextID, step, n int, stats *genStats) {
	t.Helper()
	s := c.Snapshot()
	defer s.Release()
	for i := 0; i < n; i++ {
		// Some live document of the version, to draw operands from.
		anchor := bson.NewDoc(0)
		for tries := 0; tries < 8 && s.v.length > 0; tries++ {
			if rec := s.v.record(r.Intn(s.v.length)); rec != nil && !rec.deleted {
				anchor = rec.doc
				break
			}
		}
		filter := genFilter(r, anchor, nextID)
		m, err := query.Compile(filter)
		if err != nil {
			t.Fatalf("step %d: the generator drew a filter that does not compile: %s: %v", step, filter, err)
		}
		full, _ := planFind(t, s, m, true)
		rest, acc := planFind(t, s, m, false)
		describe := func() string {
			return fmt.Sprintf("step %d: %s planned %q ∩ %v, %d clauses covered", step, filter, acc.index, acc.intersected, acc.covered)
		}
		if len(full) != len(rest) {
			t.Fatalf("%s: %d documents with the whole filter on every candidate, %d with the residual", describe(), len(full), len(rest))
		}
		for k := range full {
			if full[k] != rest[k] {
				t.Fatalf("%s: document %d is %s with the whole filter, %s with the residual", describe(), k, full[k], rest[k])
			}
		}
		got, plan, err := c.FindWithPlan(filter, FindOptions{AtVersion: s.Version()})
		if err != nil {
			t.Fatalf("%s: %v", describe(), err)
		}
		if len(got) != len(rest) || plan.IndexUsed != acc.index || plan.KeysExamined != acc.keys || plan.ClausesCovered != acc.covered {
			t.Fatalf("%s: the cursor returned %d documents under %s, the plan walked by hand %d", describe(), len(got), plan, len(rest))
		}
		for k := range got {
			if got[k] != rest[k] {
				t.Fatalf("%s: cursor document %d is %s, by hand %s", describe(), k, got[k], rest[k])
			}
		}
		want := scanFind(s, filter)
		sortByID(rest)
		if len(rest) != len(want) {
			t.Fatalf("%s: returned %d documents, a collection scan %d", describe(), len(rest), len(want))
		}
		for k := range want {
			if rest[k] != want[k] {
				t.Fatalf("%s: document %d:\n got  %s\n scan %s", describe(), k, rest[k], want[k])
			}
		}
		stats.filters++
		if len(want) > 0 {
			stats.matched++
		}
		if acc.index != "" {
			stats.indexed++
			for _, cons := range query.FieldConstraints(filter) {
				if cons.IsEmpty() && acc.keys == 0 {
					stats.empty++ // an unsatisfiable constraint read as an empty scan
					break
				}
			}
		}
		if len(acc.intersected) > 0 {
			stats.intersected++
		}
		if acc.covered > 0 {
			stats.covered++
		}
		if acc.residual == nil {
			stats.residualNil++
		}
	}
}

// pinnedView is a snapshot held across later churn together with what every
// churn filter returned at the moment it was pinned.
type pinnedView struct {
	snap *Snapshot
	step int
	want [][]*bson.Doc
}

func pinView(c *Collection, step int) pinnedView {
	p := pinnedView{snap: c.Snapshot(), step: step}
	for _, f := range churnFilters {
		p.want = append(p.want, cloneAll(scanFind(p.snap, f.filter)))
	}
	return p
}

// check replays the filters against the pinned version, through its own
// frozen trees, and expects the results recorded at pin time.
func (p pinnedView) check(t *testing.T, c *Collection, step int) {
	t.Helper()
	for i, f := range churnFilters {
		if d := diffFind(c, p.snap.Version(), f.filter, f.indexed, p.want[i]); d != "" {
			t.Fatalf("step %d, version %d pinned at step %d: %s", step, p.snap.Version(), p.step, d)
		}
	}
}

// indexContents lists, for every index and every key of its domain, the _ids
// of the documents its entries point at. Entry order within a key is history
// (a rebuilt tree lists positions ascending), so the ids are sorted.
func indexContents(t *testing.T, c *Collection, nextID int) map[string]map[string][]string {
	t.Helper()
	g, h, u, tags := []any{nil}, []any{nil, bson.A()}, []any{nil}, []any{nil}
	ids := make([]any, nextID+1)
	for i := range ids {
		ids[i] = int64(i)
	}
	for i := 0; i < churnG; i++ {
		g = append(g, int64(i))
	}
	for i := 0; i < churnH; i++ {
		h = append(h, int64(i))
	}
	for i := 0; i < churnU; i++ {
		u = append(u, int64(i))
	}
	for _, tag := range churnTags {
		tags = append(tags, tag)
	}
	single := func(vals []any) []index.Key {
		keys := make([]index.Key, len(vals))
		for i, v := range vals {
			keys[i] = index.Key{v}
		}
		return keys
	}
	domains := map[string][]index.Key{idIndexName: single(ids), "u_1": single(u), "g_1": single(g), "tags_1": single(tags), "h_1": single(h)}
	for _, gv := range g {
		for _, hv := range h {
			domains["g_1_h_1"] = append(domains["g_1_h_1"], index.Key{gv, hv})
		}
	}
	// n starts below 6 and gains one per $inc; an upsert leaves it out.
	for _, tag := range tags {
		domains["tags_1_n_1"] = append(domains["tags_1_n_1"], index.Key{tag, nil})
		for n := 0; n < 6+churnMaxSteps; n++ {
			domains["tags_1_n_1"] = append(domains["tags_1_n_1"], index.Key{tag, int64(n)})
		}
	}
	// Every array a document can hold under tags: up to three of the tags.
	arrays := [][]any{{}}
	for from := 0; len(arrays[from]) < 3; from++ {
		for _, tag := range churnTags {
			arrays = append(arrays, append(slices.Clone(arrays[from]), tag))
		}
	}
	for _, hv := range h {
		if _, isArr := hv.([]any); isArr {
			continue // leading, [] is the null key too
		}
		domains["h_1_tags_1"] = append(domains["h_1_tags_1"], index.Key{hv, nil})
		for _, arr := range arrays {
			domains["h_1_tags_1"] = append(domains["h_1_tags_1"], index.Key{hv, arr})
		}
	}
	out := map[string]map[string][]string{}
	for _, name := range append(c.IndexNames(), idIndexName) {
		ix := c.Index(name)
		byKey, entries := map[string][]string{}, 0
		for _, key := range domains[name] {
			var ids []string
			for _, pos := range ix.LookupKey(key) {
				r := c.writerRecord(pos)
				if r == nil || r.deleted {
					t.Fatalf("index %s key %v: entry at position %d points at no live record", name, key, pos)
				}
				ids = append(ids, fmt.Sprint(r.doc.ID()))
			}
			sort.Strings(ids)
			entries += len(ids)
			if len(ids) > 0 {
				byKey[fmt.Sprint(key)] = ids
			}
		}
		if entries != ix.Len() {
			t.Fatalf("index %s holds %d entries, %d of them under the keys of its domain", name, ix.Len(), entries)
		}
		out[name] = byKey
	}
	return out
}

// churnCheckpoint is what a checkpoint keeps of one collection.
type churnCheckpoint struct {
	data bytes.Buffer
	info SnapshotInfo
}

func takeCheckpoint(t *testing.T, c *Collection) *churnCheckpoint {
	t.Helper()
	s := c.Snapshot()
	defer s.Release()
	cp := &churnCheckpoint{info: s.Info()}
	if err := s.WriteData(&cp.data); err != nil {
		t.Fatal(err)
	}
	return cp
}

// recoverFrom rebuilds a collection the way mongod's recovery does: load the
// checkpoint's documents, backfill its index definitions, then replay the
// logged batches past its watermark. The checkpoint must postdate every
// index creation, which the journal records without a place in that order.
func recoverFrom(t *testing.T, cp *churnCheckpoint, log *fakeJournal) *Collection {
	t.Helper()
	if len(cp.info.Indexes) != len(churnIndexes) {
		t.Fatalf("checkpoint carries %d index definitions, want all %d", len(cp.info.Indexes), len(churnIndexes))
	}
	c := NewCollection("churn")
	if err := c.ReadSnapshot(bytes.NewReader(cp.data.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, meta := range cp.info.Indexes {
		if _, err := c.EnsureIndexDoc(meta.Spec, meta.Unique); err != nil {
			t.Fatal(err)
		}
	}
	c.SetReplayLSN(cp.info.LastLSN)
	for _, rec := range log.batches {
		if rec.lsn <= c.LastLSN() {
			continue
		}
		// Per-op failures replay as they failed the first time.
		c.BulkWrite(rec.ops, BulkOptions{Ordered: rec.ordered})
		c.SetReplayLSN(rec.lsn)
	}
	return c
}

// TestIndexChurnEquivalence drives seeded random insert / update / upsert /
// delete / compaction sequences over a collection with its _id_ index and a
// unique, two non-unique, three compound and a multikey index, while a reader keeps
// comparing finds on whatever version is current. After every step each
// index-served find equals the collection scan of the same version — the
// fixed churnFilters and, drawn afresh each step, generated conjunctive
// filters run three ways (checkGeneratedFilters), which is how the plan's
// intersections and its residual are held to the declarative form;
// versions pinned along the way — before compactions included — keep
// returning their point-in-time results through their own frozen trees; and
// a checkpoint taken mid-sequence plus a replay of the log after it rebuilds
// the same index contents.
func TestIndexChurnEquivalence(t *testing.T) {
	steps := churnMaxSteps
	if testing.Short() {
		steps = 120
	}
	var total genStats
	defer func() {
		if t.Failed() {
			return
		}
		if !testing.Short() && total.filters < 2000 {
			t.Errorf("%d generated filters compared, want at least 2000", total.filters)
		}
		if total.matched < total.filters/4 || total.intersected == 0 || total.covered == 0 || total.residualNil == 0 || total.empty == 0 {
			t.Errorf("the generated filters missed a branch of the planner: %+v", total)
		}
	}()
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			c := NewCollection("churn")
			log := &fakeJournal{}
			c.SetJournal(log)
			// Half the indexes exist before the first document, half are
			// backfilled over live records and tombstones.
			for _, ix := range churnIndexes[:2] {
				if _, err := c.EnsureIndexDoc(ix.spec, ix.unique); err != nil {
					t.Fatal(err)
				}
			}

			// The reader sees versions the writer's steps never stop at
			// (mid-sequence publishes of other steps) and runs the frozen
			// trees while the writer path-copies and rebuilds its own.
			stop := make(chan struct{})
			var reader sync.WaitGroup
			stopReader := sync.OnceFunc(func() {
				close(stop)
				reader.Wait()
			})
			defer stopReader() // a t.Fatal below must not leave it running
			reader.Add(1)
			go func() {
				defer reader.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s := c.Snapshot()
					f := churnFilters[i%len(churnFilters)]
					// The second half of the indexes appears mid-run, so only
					// the result is compared here, not the plan.
					if d := diffFind(c, s.Version(), f.filter, false, scanFind(s, f.filter)); d != "" {
						t.Errorf("concurrent reader: %s", d)
						s.Release()
						return
					}
					s.Release()
				}
			}()

			nextID := 0
			var pins []pinnedView
			var cp *churnCheckpoint
			// The generated filters draw from their own stream, so adding
			// one does not change the churn the fixed filters have seen.
			genRand := rand.New(rand.NewSource(seed + 100))
			var stats genStats
			for step := 0; step < steps; step++ {
				if step == steps/4 {
					for _, ix := range churnIndexes[2:] {
						if _, err := c.EnsureIndexDoc(ix.spec, ix.unique); err != nil {
							t.Fatal(err)
						}
					}
				}
				if step == steps/2 {
					cp = takeCheckpoint(t, c)
				}
				pinned := step > steps/4 && step%37 == 0
				if pinned {
					// Pin, then compact under the pin: the version keeps its
					// pages and its trees, in the old numbering.
					pins = append(pins, pinView(c, step))
					forceCompact(c)
				}
				churnStep(r, c, &nextID)
				if step < steps/4 {
					continue // the filters expect all the indexes
				}
				checkFindsMatchScan(t, c, step)
				checkGeneratedFilters(t, genRand, c, nextID, step, 4, &stats)
				if pinned || step%4 == 0 {
					for _, p := range pins {
						p.check(t, c, step)
					}
				}
			}
			stopReader()
			for _, p := range pins {
				p.snap.Release()
			}
			if c.Count() == 0 {
				t.Fatal("the churn left no document to compare")
			}

			t.Logf("generated filters: %+v", stats)
			total.filters += stats.filters
			total.matched += stats.matched
			total.intersected += stats.intersected
			total.covered += stats.covered
			total.residualNil += stats.residualNil
			total.empty += stats.empty

			recovered := recoverFrom(t, cp, log)
			if got, want := indexContents(t, recovered, nextID), indexContents(t, c, nextID); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovery rebuilt different index contents:\n got  %v\n want %v", got, want)
			}
			checkFindsMatchScan(t, recovered, steps)
		})
	}
}
