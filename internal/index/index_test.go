package index

import (
	"errors"
	"math"
	"slices"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec(bson.D("ItemPrice", 1, "ItemQuantity", -1))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if s.Kind() != KindCompound || len(s.Fields) != 2 || !s.Fields[1].Desc {
		t.Fatalf("spec = %+v", s)
	}
	if s.Name() != "ItemPrice_1_ItemQuantity_-1" {
		t.Fatalf("Name = %q", s.Name())
	}
	single := MustParseSpec(bson.D("ss_item_sk", 1))
	if single.Kind() != KindSingle {
		t.Fatalf("single kind = %v", single.Kind())
	}
	hashed := MustParseSpec(bson.D("ss_ticket_number", "hashed"))
	if hashed.Kind() != KindHashed || hashed.Name() != "ss_ticket_number_hashed" {
		t.Fatalf("hashed spec = %+v", hashed)
	}
	if got := s.FieldNames(); len(got) != 2 || got[0] != "ItemPrice" {
		t.Fatalf("FieldNames = %v", got)
	}
	// Doc round trip.
	round := MustParseSpec(s.Doc())
	if round.Name() != s.Name() {
		t.Fatalf("Doc round trip: %q vs %q", round.Name(), s.Name())
	}
	// Float directions are accepted (JSON decoding produces them).
	if _, err := ParseSpec(bson.D("x", 1.0)); err != nil {
		t.Fatalf("float direction: %v", err)
	}
	// Errors.
	for _, bad := range []*bson.Doc{
		nil,
		bson.NewDoc(0),
		bson.D("x", 2),
		bson.D("x", 0.5),
		bson.D("x", "2d"),
		bson.D("x", true),
		bson.D("x", "hashed", "y", 1),
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%v) should fail", bad)
		}
	}
}

func TestMustParseSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustParseSpec(bson.D("x", 3))
}

func TestIndexInsertLookupRemove(t *testing.T) {
	ix := New("", MustParseSpec(bson.D("ss_item_sk", 1)), false)
	if ix.Name() != "ss_item_sk_1" {
		t.Fatalf("default name = %q", ix.Name())
	}
	docs := []*bson.Doc{
		bson.D(bson.IDKey, 1, "ss_item_sk", 17),
		bson.D(bson.IDKey, 2, "ss_item_sk", 17),
		bson.D(bson.IDKey, 3, "ss_item_sk", 99),
		bson.D(bson.IDKey, 4), // missing field indexes as null
	}
	for pos, d := range docs {
		if err := ix.Insert(d, pos); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if got := ix.Lookup(17); len(got) != 2 {
		t.Fatalf("Lookup(17) = %v", got)
	}
	if got := ix.Lookup(nil); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Lookup(nil) = %v", got)
	}
	if ix.SizeBytes() <= 0 {
		t.Fatalf("SizeBytes = %d", ix.SizeBytes())
	}
	ix.Remove(docs[0], 0)
	if got := ix.Lookup(17); len(got) != 1 {
		t.Fatalf("after remove Lookup(17) = %v", got)
	}
	if ix.DistinctKeys() != 3 {
		t.Fatalf("DistinctKeys = %d", ix.DistinctKeys())
	}
}

func TestUniqueIndexRejectsDuplicates(t *testing.T) {
	ix := New("uniq", MustParseSpec(bson.D("email", 1)), true)
	if err := ix.Insert(bson.D(bson.IDKey, 1, "email", "a@x.com"), 1); err != nil {
		t.Fatalf("first insert: %v", err)
	}
	err := ix.Insert(bson.D(bson.IDKey, 2, "email", "a@x.com"), 2)
	if err == nil {
		t.Fatalf("duplicate insert should fail")
	}
	var dup *ErrDuplicateKey
	if !errors.As(err, &dup) || dup.Index != "uniq" {
		t.Fatalf("error = %v", err)
	}
	if !ix.Unique() {
		t.Fatalf("Unique() should be true")
	}
}

func TestMultikeyIndex(t *testing.T) {
	ix := New("", MustParseSpec(bson.D("tags", 1)), false)
	doc := bson.D(bson.IDKey, 1, "tags", bson.A("red", "green", "blue"))
	if err := ix.Insert(doc, 1); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if !ix.Multikey() {
		t.Fatalf("index should be multikey")
	}
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want one entry per element", ix.Len())
	}
	if got := ix.Lookup("green"); len(got) != 1 {
		t.Fatalf("Lookup(green) = %v", got)
	}
	ix.Remove(doc, 1)
	if ix.Len() != 0 {
		t.Fatalf("Len after remove = %d", ix.Len())
	}
	// Empty array indexes as null.
	ix2 := New("", MustParseSpec(bson.D("tags", 1)), false)
	_ = ix2.Insert(bson.D(bson.IDKey, 1, "tags", bson.A()), 1)
	if got := ix2.Lookup(nil); len(got) != 1 {
		t.Fatalf("empty array should index as null, got %v", got)
	}
}

// An array under the leading field of a compound index is one key per
// element, as in a single-field index, and the index says it is multikey: a
// filter matches the array by its elements, so a key holding the array whole
// would hide the document from every point and range on the field.
func TestCompoundIndexOverLeadingArray(t *testing.T) {
	ix := New("", MustParseSpec(bson.D("tags", 1, "n", 1)), false)
	_ = ix.Insert(bson.D(bson.IDKey, 0, "tags", 3, "n", 1), 0)
	if ix.Multikey() {
		t.Fatal("scalars only: not multikey yet")
	}
	doc := bson.D(bson.IDKey, 1, "tags", bson.A(3, 100), "n", 7)
	_ = ix.Insert(doc, 1)
	_ = ix.Insert(bson.D(bson.IDKey, 2, "tags", bson.A(), "n", 7), 2)
	if !ix.Multikey() || ix.Len() != 4 {
		t.Fatalf("Multikey = %v, Len = %d; want one entry per element of the leading array", ix.Multikey(), ix.Len())
	}
	if got := ix.LookupKey(Key{int64(100), int64(7)}); !slices.Equal(got, []int{1}) {
		t.Fatalf("LookupKey({100, 7}) = %v", got)
	}
	if ids, ok := postings(t, ix, bson.D("tags", 3), "tags"); !ok || !slices.Equal(ids, []int{0, 1}) {
		t.Fatalf("postings of tags: 3 = %v, ok=%v", ids, ok)
	}
	if ids, ok := postings(t, ix, bson.D("tags", bson.D("$gte", 50, "$lte", 4)), "tags"); !ok || !slices.Contains(ids, 1) {
		t.Fatalf("one bound through each element: %v, ok=%v", ids, ok)
	}
	if ids, _ := postings(t, ix, bson.D("tags", nil), "tags"); !slices.Equal(ids, []int{2}) {
		t.Fatalf("an empty leading array should index as null, got %v", ids)
	}
	ix.Remove(doc, 1)
	if ix.Len() != 2 {
		t.Fatalf("Len after remove = %d", ix.Len())
	}
}

// Postings stops reading at the key that overdraws the budget — its entries,
// and KeyCost for the key — in a point set, a range and a compound prefix
// alike.
func TestPostingsBudget(t *testing.T) {
	single := New("", MustParseSpec(bson.D("a", 1)), false)
	compound := New("", MustParseSpec(bson.D("a", 1, "b", 1)), false)
	for i := 0; i < 1000; i++ {
		d := bson.D(bson.IDKey, i, "a", i%100, "b", i)
		_, _ = single.Insert(d, i), compound.Insert(d, i)
	}
	// A key of the single-field index holds ten entries, a key of the compound
	// one (ten to a value of a) one.
	const one, many = 1 + KeyCost, 10 + KeyCost
	for _, tc := range []struct {
		ix     *Index
		cond   any
		budget int
		lists  int // read before it gave up; -1: it did not
	}{
		{single, bson.D("$gte", 0), 100 * many, -1},
		{single, bson.D("$gte", 0), 100*many - 1, 100},
		{single, bson.D("$gte", 0), 2*many + 5, 3},
		{single, bson.D("$in", bson.A(1, 2, 3, 4)), 4 * many, -1},
		{single, bson.D("$in", bson.A(1, 2, 3, 4)), 4*many - 1, 4},
		{single, bson.D("$in", bson.A(1, 2, 3, 4)), many + 5, 2},
		{single, 5, many - 1, 1},
		{compound, bson.D("$gte", 0), 25 * one, 26},
		{compound, bson.D("$in", bson.A(1, 2, 3, 4)), 15 * one, 16},
		{compound, bson.D("$in", bson.A(1, 2, 3, 4)), 40*one - 1, 40},
		{compound, bson.D("$in", bson.A(1, 2, 3, 4)), 40 * one, -1},
	} {
		lists, total, ok := tc.ix.Postings(query.ConstraintFor(bson.D("a", tc.cond), "a"), nil, tc.budget)
		if want := tc.lists < 0; ok != want || ok != (total+KeyCost*len(lists) <= tc.budget) || !ok && len(lists) != tc.lists {
			t.Errorf("%s, a: %v, budget %d: ok=%v after %d lists of %d entries; want %d lists",
				tc.ix.Name(), tc.cond, tc.budget, ok, len(lists), total, tc.lists)
		}
	}
}

func TestHashedIndexLookup(t *testing.T) {
	ix := New("", MustParseSpec(bson.D("k", "hashed")), false)
	for i := 0; i < 100; i++ {
		if err := ix.Insert(bson.D(bson.IDKey, i, "k", i), i); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if got := ix.Lookup(42); len(got) != 1 || got[0] != 42 {
		t.Fatalf("Lookup(42) = %v", got)
	}
	if got := ix.Lookup(1000); len(got) != 0 {
		t.Fatalf("Lookup(1000) = %v", got)
	}
	// HashValue is deterministic and matches index behaviour.
	if HashValue(int64(42)) != HashValue(int64(42)) {
		t.Fatalf("HashValue not deterministic")
	}
	if HashValue(int64(42)) == HashValue(int64(43)) {
		t.Fatalf("suspicious hash collision between adjacent keys")
	}
}

func TestCompoundIndexAndPrefix(t *testing.T) {
	ix := New("", MustParseSpec(bson.D("ItemPrice", 1, "ItemQuantity", 1)), false)
	for i := 0; i < 50; i++ {
		d := bson.D(bson.IDKey, i, "ItemPrice", i%5, "ItemQuantity", i)
		if err := ix.Insert(d, i); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if got := ix.LookupKey(Key{int64(3), int64(3)}); len(got) != 1 {
		t.Fatalf("LookupKey = %v", got)
	}
	// Prefix matching (§2.1.2): a filter on the leading field alone can use
	// the compound index.
	cs := query.FieldConstraints(bson.D("ItemPrice", 3))
	if n := ix.PrefixMatches(cs); n != 1 {
		t.Fatalf("PrefixMatches(leading only) = %d", n)
	}
	cs = query.FieldConstraints(bson.D("ItemPrice", 3, "ItemQuantity", bson.D("$gte", 10)))
	if n := ix.PrefixMatches(cs); n != 2 {
		t.Fatalf("PrefixMatches(both) = %d", n)
	}
	cs = query.FieldConstraints(bson.D("ItemQuantity", 3))
	if n := ix.PrefixMatches(cs); n != 0 {
		t.Fatalf("PrefixMatches(trailing only) = %d", n)
	}
	// Scanning a point constraint on the leading field returns every doc
	// with that price.
	ids, ok := postings(t, ix, bson.D("ItemPrice", 3), "ItemPrice")
	if !ok || len(ids) != 10 {
		t.Fatalf("Postings point on compound prefix: ok=%v ids=%d", ok, len(ids))
	}
	// Bounds on the leading field of a compound key: {v} sorts before every
	// {v, ...} and {v, MAX} after, whichever way the bound is closed.
	for _, tc := range []struct {
		cond *bson.Doc
		want int
	}{
		{bson.D("$gte", 1, "$lte", 3), 30},
		{bson.D("$gt", 1, "$lte", 3), 20},
		{bson.D("$gte", 1, "$lt", 3), 20},
		{bson.D("$gt", 1, "$lt", 3), 10},
		{bson.D("$gt", 3), 10},
		{bson.D("$lt", 1), 10},
		{bson.D("$gte", 3, "$lte", 1), 0},
	} {
		if ids, ok = postings(t, ix, bson.D("ItemPrice", tc.cond), "ItemPrice"); !ok || len(ids) != tc.want {
			t.Fatalf("Postings %s on compound prefix: ok=%v, %d positions, want %d", tc.cond, ok, len(ids), tc.want)
		}
	}
}

// postings reads the index for the filter's constraint on field and flattens
// the lists, in scan order.
func postings(t *testing.T, ix *Index, filter *bson.Doc, field string) ([]int, bool) {
	t.Helper()
	lists, total, ok := ix.Postings(query.ConstraintFor(filter, field), nil, math.MaxInt)
	var ids []int
	for _, l := range lists {
		for _, p := range l {
			ids = append(ids, int(p))
		}
	}
	if len(ids) != total || !ok && total != 0 {
		t.Fatalf("Postings(%s): %d positions in the lists, total %d, ok %v", filter, len(ids), total, ok)
	}
	return ids, ok
}

func TestPostingsOnSingleFieldIndex(t *testing.T) {
	ix := New("", MustParseSpec(bson.D("price", 1)), false)
	for i := 0; i < 100; i++ {
		_ = ix.Insert(bson.D(bson.IDKey, i, "price", float64(i)/10), i)
	}
	// 1.0 .. 1.4 → ids 10..14 plus 0.99..: price values are i/10, so >=0.99
	// means i >= 10 (i=10 → 1.0) and <= 1.49 means i <= 14.
	ids, ok := postings(t, ix, bson.D("price", bson.D("$gte", 0.99, "$lte", 1.49)), "price")
	if !ok || len(ids) != 5 {
		t.Fatalf("range postings: ok=%v ids = %v", ok, ids)
	}
	// Exclusive bounds.
	if ids, _ = postings(t, ix, bson.D("price", bson.D("$gt", 1.0, "$lt", 1.4)), "price"); len(ids) != 3 {
		t.Fatalf("exclusive range postings ids = %v", ids)
	}
	// No constraint on the field cannot be used.
	if _, ok = postings(t, ix, bson.D("other", 1), "price"); ok {
		t.Fatalf("a nil constraint should not be readable")
	}
	// Point-set constraints ($in) read each point, in the order given.
	if ids, _ = postings(t, ix, bson.D("price", bson.D("$in", bson.A(2.0, 0.5, 77.0))), "price"); !slices.Equal(ids, []int{20, 5}) {
		t.Fatalf("$in postings ids = %v", ids)
	}
	// No value at all: read as nothing — until an array makes the index
	// multikey, whose documents can satisfy what no single value can.
	for _, f := range []*bson.Doc{
		bson.D("price", bson.D("$in", bson.A())),
		bson.D("$and", bson.A(bson.D("price", 1.0), bson.D("price", 2.0))),
		bson.D("price", bson.D("$gt", 3.0, "$lt", 3.0)),
	} {
		if ids, ok = postings(t, ix, f, "price"); !ok || len(ids) != 0 {
			t.Fatalf("postings of %s: ok=%v ids=%v, want an empty read", f, ok, ids)
		}
		if n := ix.PrefixMatches(query.FieldConstraints(f)); n != 1 {
			t.Fatalf("PrefixMatches(%s) = %d, want 1", f, n)
		}
	}
	_ = ix.Insert(bson.D(bson.IDKey, 100, "price", bson.A(1.0, 2.0, 9.5)), 100)
	if !ix.Multikey() {
		t.Fatal("an array value should make the index multikey")
	}
	if _, ok = postings(t, ix, bson.D("price", bson.D("$in", bson.A())), "price"); ok {
		t.Fatalf("a multikey index answered a point set it does not have")
	}
	if n := ix.PrefixMatches(query.FieldConstraints(bson.D("price", bson.D("$in", bson.A())))); n != 0 {
		t.Fatalf("PrefixMatches(empty $in) on a multikey index = %d, want 0", n)
	}
	// {$gte: 9, $lte: 1.5} holds for [1, 2, 9.5] — 9.5 above, 1 below — and
	// {$gte: 3, $lte: 5} as well: a multikey index reads one bound only.
	for _, cond := range []*bson.Doc{bson.D("$gte", 9.0, "$lte", 1.5), bson.D("$gte", 3.0, "$lte", 5.0)} {
		if ids, ok = postings(t, ix, bson.D("price", cond), "price"); !ok || !slices.Contains(ids, 100) {
			t.Fatalf("multikey postings of %s: ok=%v, position 100 missing from %v", cond, ok, ids)
		}
	}
}

func TestPostingsHashedIndexLimitations(t *testing.T) {
	ix := New("", MustParseSpec(bson.D("k", "hashed")), false)
	for i := 0; i < 20; i++ {
		_ = ix.Insert(bson.D(bson.IDKey, i, "k", i), i)
	}
	// Point constraints work.
	if ids, ok := postings(t, ix, bson.D("k", 7), "k"); !ok || len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("hashed point postings: ok=%v ids = %v", ok, ids)
	}
	if ids, _ := postings(t, ix, bson.D("k", bson.D("$in", bson.A(1, 2, 3))), "k"); !slices.Equal(ids, []int{1, 2, 3}) {
		t.Fatalf("hashed $in postings ids = %v", ids)
	}
	// Range constraints cannot use a hashed index.
	if _, ok := postings(t, ix, bson.D("k", bson.D("$gte", 3)), "k"); ok {
		t.Fatalf("hashed index should reject range constraints")
	}
}

func TestCoversSort(t *testing.T) {
	ix := New("", MustParseSpec(bson.D("a", 1, "b", -1)), false)
	if !ix.CoversSort(query.MustParseSort(bson.D("a", 1))) {
		t.Fatalf("prefix sort should be covered")
	}
	if !ix.CoversSort(query.MustParseSort(bson.D("a", 1, "b", -1))) {
		t.Fatalf("full sort should be covered")
	}
	if ix.CoversSort(query.MustParseSort(bson.D("a", -1))) {
		t.Fatalf("reversed direction should not be covered")
	}
	if ix.CoversSort(query.MustParseSort(bson.D("b", -1))) {
		t.Fatalf("non-prefix sort should not be covered")
	}
	if ix.CoversSort(nil) {
		t.Fatalf("empty sort should not claim coverage")
	}
	hashed := New("", MustParseSpec(bson.D("a", "hashed")), false)
	if hashed.CoversSort(query.MustParseSort(bson.D("a", 1))) {
		t.Fatalf("hashed index cannot cover a sort")
	}
}

func TestIndexRemoveMissingIsNoop(t *testing.T) {
	ix := New("", MustParseSpec(bson.D("x", 1)), false)
	d := bson.D(bson.IDKey, 1, "x", 5)
	ix.Remove(d, 1) // nothing inserted yet
	if ix.Len() != 0 || ix.SizeBytes() != 0 {
		t.Fatalf("remove on empty index changed state")
	}
}

func TestIndexDottedPathKeys(t *testing.T) {
	// Indexing an embedded dimension attribute, as the denormalized model does.
	ix := New("", MustParseSpec(bson.D("ss_sold_date_sk.d_year", 1)), false)
	_ = ix.Insert(bson.D(bson.IDKey, 1, "ss_sold_date_sk", bson.D("d_year", 2001)), 1)
	_ = ix.Insert(bson.D(bson.IDKey, 2, "ss_sold_date_sk", bson.D("d_year", 2002)), 2)
	if got := ix.Lookup(2001); len(got) != 1 || got[0] != 1 {
		t.Fatalf("dotted path lookup = %v", got)
	}
}

// TestReplaceSkipsUnchangedKeys: Replace leaves the tree alone (no path copy
// in an open copy-on-write era, entry order kept) when the update did not
// change the document's keys, and moves the entries when it did — compound
// and hashed keys included.
func TestReplaceSkipsUnchangedKeys(t *testing.T) {
	for _, spec := range []*bson.Doc{
		bson.D("a", 1),
		bson.D("a", 1, "b", 1),
		bson.D("a", "hashed"),
	} {
		ix := New("", MustParseSpec(spec), false)
		old := bson.D(bson.IDKey, 1, "a", 5, "b", 1, "other", "x")
		if err := ix.Insert(old, 1); err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(bson.D(bson.IDKey, 2, "a", 5, "b", 1), 2); err != nil {
			t.Fatal(err)
		}
		frozen := ix.Freeze()
		ix.SetStamp(2)
		copied := int64(0)
		ix.SetCopyHook(func(b int64) { copied += b })

		same := bson.D(bson.IDKey, 1, "a", 5, "b", 1, "other", "y")
		if err := ix.Replace(old, same, 1); err != nil {
			t.Fatal(err)
		}
		if copied != 0 || ix.Len() != 2 {
			t.Fatalf("%s: unchanged keys copied %d bytes, %d entries", ix.Name(), copied, ix.Len())
		}

		moved := bson.D(bson.IDKey, 1, "a", 6, "b", 1, "other", "y")
		if err := ix.Replace(same, moved, 1); err != nil {
			t.Fatal(err)
		}
		if copied == 0 || ix.Len() != 2 {
			t.Fatalf("%s: changed keys copied %d bytes, %d entries", ix.Name(), copied, ix.Len())
		}
		at := func(ix *Index, a int) int {
			_, n, _ := ix.Postings(&query.Constraint{Field: "a", Points: []any{int64(a)}}, nil, math.MaxInt)
			return n
		}
		if at(ix, 5) != 1 || at(ix, 6) != 1 {
			t.Fatalf("%s: after the move a=5 has %d entries, a=6 has %d", ix.Name(), at(ix, 5), at(ix, 6))
		}
		if at(frozen, 5) != 2 || at(frozen, 6) != 0 {
			t.Fatalf("%s: the frozen handle saw the move", ix.Name())
		}
	}
}

// TestReplaceRestoresEntriesOnDuplicate: a unique index that refuses the new
// keys leaves the document's old entries in place.
func TestReplaceRestoresEntriesOnDuplicate(t *testing.T) {
	ix := New("uniq", MustParseSpec(bson.D("email", 1)), true)
	a := bson.D(bson.IDKey, 1, "email", "a@x.com")
	b := bson.D(bson.IDKey, 2, "email", "b@x.com")
	if err := ix.Insert(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(b, 1); err != nil {
		t.Fatal(err)
	}
	size := ix.SizeBytes()
	var dup *ErrDuplicateKey
	if err := ix.Replace(b, bson.D(bson.IDKey, 2, "email", "a@x.com"), 1); !errors.As(err, &dup) {
		t.Fatalf("Replace onto a taken key = %v, want ErrDuplicateKey", err)
	}
	if got := ix.Lookup("b@x.com"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after the refused Replace Lookup(b) = %v, want [1]", got)
	}
	if got := ix.Lookup("a@x.com"); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after the refused Replace Lookup(a) = %v, want [0]", got)
	}
	if ix.Len() != 2 || ix.SizeBytes() != size {
		t.Fatalf("after the refused Replace Len = %d, SizeBytes = %d (was %d)", ix.Len(), ix.SizeBytes(), size)
	}
}

// TestRemapRenumbersWriterAndSparesFrozenHandles: Remap moves every entry of
// the writer's tree to its record's new position, in the same key and entry
// order, while a handle frozen before it still reads the old numbering.
func TestRemapRenumbersWriterAndSparesFrozenHandles(t *testing.T) {
	const n = 5000
	ix := New("", MustParseSpec(bson.D("g", 1)), false)
	ix.SetStamp(1)
	for pos := 0; pos < n; pos++ {
		if err := ix.Insert(bson.D("g", pos%37), pos); err != nil {
			t.Fatal(err)
		}
	}
	// Drop every third record, as a delete-then-compact would.
	newPos := make([]int, n)
	live := 0
	for pos := range newPos {
		if pos%3 == 0 {
			ix.Remove(bson.D("g", pos%37), pos)
			newPos[pos] = -1
			continue
		}
		newPos[pos] = live
		live++
	}
	frozen := ix.Freeze()
	ix.SetStamp(2)
	nodes, before := ix.Nodes(), ix.Len()
	ix.Remap(newPos)
	if ix.Len() != before || ix.Nodes() != nodes {
		t.Fatalf("Remap changed the tree's shape: %d entries in %d nodes, was %d in %d", ix.Len(), ix.Nodes(), before, nodes)
	}
	for g := 0; g < 37; g++ {
		old, got := frozen.Lookup(g), ix.Lookup(g)
		if len(old) != len(got) {
			t.Fatalf("g=%d: %d entries after Remap, %d before", g, len(got), len(old))
		}
		for i := range old {
			if old[i]%37 != g || old[i]%3 == 0 {
				t.Fatalf("g=%d: the frozen handle reads position %d", g, old[i])
			}
			if got[i] != newPos[old[i]] {
				t.Fatalf("g=%d entry %d: position %d, want %d (was %d)", g, i, got[i], newPos[old[i]], old[i])
			}
		}
	}
	// The rebuilt tree is the writer's own: it takes further writes, and they
	// too stay invisible to the frozen handle.
	if err := ix.Insert(bson.D("g", 5), live); err != nil {
		t.Fatal(err)
	}
	ix.Remove(bson.D("g", 5), ix.Lookup(5)[0])
	if got, old := len(ix.Lookup(5)), len(frozen.Lookup(5)); got != old {
		t.Fatalf("g=5 has %d entries after an insert and a remove, want %d", got, old)
	}
}

// TestRemapPanicsOnEntryForDroppedRecord: an entry that outlived its record
// is a maintenance bug, not something to renumber.
func TestRemapPanicsOnEntryForDroppedRecord(t *testing.T) {
	ix := New("", MustParseSpec(bson.D("g", 1)), false)
	if err := ix.Insert(bson.D("g", 1), 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Remap accepted an entry whose record was dropped")
		}
	}()
	ix.Remap([]int{-1})
}

// TestInsertRejectsPositionsAnEntryCannotHold: positions are stored in four
// bytes; one that does not fit is an error, never a silent wrap onto another
// record.
func TestInsertRejectsPositionsAnEntryCannotHold(t *testing.T) {
	ix := New("", MustParseSpec(bson.D("g", 1)), false)
	d := bson.D("g", 1)
	for _, pos := range []int{-1, math.MaxUint32 + 1} {
		if err := ix.Insert(d, pos); err == nil {
			t.Fatalf("Insert at position %d succeeded", pos)
		}
	}
	if err := ix.Insert(d, math.MaxUint32); err != nil {
		t.Fatalf("Insert at the last position: %v", err)
	}
	ix.Remove(d, math.MaxUint32+1) // would alias position 0 if it wrapped
	if got := ix.Lookup(1); len(got) != 1 || got[0] != math.MaxUint32 {
		t.Fatalf("Lookup = %v", got)
	}
}
