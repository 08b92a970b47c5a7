package query

import (
	"math/rand"
	"sort"
	"testing"

	"docstore/internal/bson"
)

func TestParseSort(t *testing.T) {
	s, err := ParseSort(bson.D("c_last_name", 1, "ss_ticket_number", -1))
	if err != nil {
		t.Fatalf("ParseSort: %v", err)
	}
	if len(s) != 2 || s[0].Field != "c_last_name" || s[0].Desc || s[1].Field != "ss_ticket_number" || !s[1].Desc {
		t.Fatalf("parsed sort = %+v", s)
	}
	if _, err := ParseSort(bson.D("x", 2)); err == nil {
		t.Fatalf("direction 2 should be rejected")
	}
	if _, err := ParseSort(bson.D("x", "asc")); err == nil {
		t.Fatalf("string direction should be rejected")
	}
	empty, err := ParseSort(nil)
	if err != nil || empty != nil {
		t.Fatalf("nil spec should produce nil sort")
	}
	// Round-trip through Spec.
	spec := s.Spec()
	if v, _ := spec.Get("ss_ticket_number"); v != int64(-1) {
		t.Fatalf("Spec() = %s", spec)
	}
	if got := s.Fields(); len(got) != 2 || got[0] != "c_last_name" {
		t.Fatalf("Fields() = %v", got)
	}
}

func TestMustParseSortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustParseSort(bson.D("x", 0))
}

func TestSortApply(t *testing.T) {
	docs := []*bson.Doc{
		bson.D("name", "b", "n", 2),
		bson.D("name", "a", "n", 3),
		bson.D("name", "a", "n", 1),
		bson.D("name", "c", "n", 0),
	}
	MustParseSort(bson.D("name", 1, "n", -1)).Apply(docs)
	wantNames := []string{"a", "a", "b", "c"}
	wantNs := []int64{3, 1, 2, 0}
	for i, d := range docs {
		name, _ := d.Get("name")
		n, _ := d.Get("n")
		if name != wantNames[i] || n != wantNs[i] {
			t.Fatalf("pos %d: got (%v,%v), want (%v,%v)", i, name, n, wantNames[i], wantNs[i])
		}
	}
	// Empty sort leaves order alone.
	before := append([]*bson.Doc(nil), docs...)
	Sort(nil).Apply(docs)
	for i := range docs {
		if docs[i] != before[i] {
			t.Fatalf("empty sort reordered the slice")
		}
	}
}

func TestSortMissingFieldsSortFirst(t *testing.T) {
	docs := []*bson.Doc{
		bson.D("v", 5),
		bson.D("other", 1),
		bson.D("v", 1),
	}
	MustParseSort(bson.D("v", 1)).Apply(docs)
	if _, ok := docs[0].Get("v"); ok {
		t.Fatalf("document missing the sort field should sort first ascending")
	}
	MustParseSort(bson.D("v", -1)).Apply(docs)
	if _, ok := docs[len(docs)-1].Get("v"); ok {
		t.Fatalf("document missing the sort field should sort last descending")
	}
}

func TestSortStability(t *testing.T) {
	docs := []*bson.Doc{
		bson.D("k", 1, "seq", 0),
		bson.D("k", 1, "seq", 1),
		bson.D("k", 1, "seq", 2),
		bson.D("k", 0, "seq", 3),
	}
	MustParseSort(bson.D("k", 1)).Apply(docs)
	// Among equal keys the original order must be preserved.
	var seqs []int64
	for _, d := range docs[1:] {
		s, _ := d.Get("seq")
		seqs = append(seqs, s.(int64))
	}
	if seqs[0] != 0 || seqs[1] != 1 || seqs[2] != 2 {
		t.Fatalf("stable order violated: %v", seqs)
	}
}

func TestSortMergeEquivalentToGlobalSort(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := MustParseSort(bson.D("a", 1, "b", -1))
	var all []*bson.Doc
	var parts [][]*bson.Doc
	for p := 0; p < 3; p++ {
		var part []*bson.Doc
		for i := 0; i < 50; i++ {
			d := bson.D("a", r.Intn(10), "b", r.Intn(10), "part", p)
			part = append(part, d)
			all = append(all, d)
		}
		s.Apply(part)
		parts = append(parts, part)
	}
	merged := s.Merge(parts...)
	if len(merged) != len(all) {
		t.Fatalf("merged %d docs, want %d", len(merged), len(all))
	}
	if !sort.SliceIsSorted(merged, func(i, j int) bool { return s.Compare(merged[i], merged[j]) < 0 }) {
		t.Fatalf("merged output is not sorted")
	}
}

func TestSortMergeNoOrdering(t *testing.T) {
	a := []*bson.Doc{bson.D("x", 1), bson.D("x", 2)}
	b := []*bson.Doc{bson.D("x", 3)}
	out := Sort(nil).Merge(a, b)
	if len(out) != 3 {
		t.Fatalf("got %d docs", len(out))
	}
}

func TestProjectionInclusion(t *testing.T) {
	d := bson.D(bson.IDKey, 7, "a", 1, "b", 2, "sub", bson.D("x", 10, "y", 20))
	p := MustParseProjection(bson.D("a", 1, "sub.x", 1))
	out := p.Apply(d)
	if !out.Has(bson.IDKey) || !out.Has("a") || out.Has("b") {
		t.Fatalf("projection output = %s", out)
	}
	if v, ok := out.GetPath("sub.x"); !ok || v != int64(10) {
		t.Fatalf("sub.x = %v, %v", v, ok)
	}
	if _, ok := out.GetPath("sub.y"); ok {
		t.Fatalf("sub.y should be excluded")
	}
	if !p.IsInclusion() {
		t.Fatalf("IsInclusion should be true")
	}
	if len(p.Fields()) != 2 {
		t.Fatalf("Fields = %v", p.Fields())
	}
}

func TestProjectionExclusion(t *testing.T) {
	d := bson.D(bson.IDKey, 7, "a", 1, "b", 2, "sub", bson.D("x", 1, "y", bson.D("z", 2)))
	before := d.String()
	p := MustParseProjection(bson.D("b", 0))
	out := p.Apply(d)
	if !out.Has("a") || out.Has("b") || !out.Has(bson.IDKey) {
		t.Fatalf("exclusion output = %s", out)
	}
	if p.IsInclusion() {
		t.Fatalf("IsInclusion should be false")
	}
	// Excluding _id in inclusion mode.
	p2 := MustParseProjection(bson.D(bson.IDKey, 0, "a", 1))
	out2 := p2.Apply(d)
	if out2.Has(bson.IDKey) || !out2.Has("a") {
		t.Fatalf("_id exclusion output = %s", out2)
	}
	// _id-only exclusion.
	p3 := MustParseProjection(bson.D(bson.IDKey, 0))
	out3 := p3.Apply(d)
	if out3.Has(bson.IDKey) || !out3.Has("a") || !out3.Has("b") {
		t.Fatalf("_id-only exclusion output = %s", out3)
	}
	// A nested exclusion.
	out4 := MustParseProjection(bson.D("sub.y.z", 0, "sub.x", 0)).Apply(d)
	if got := out4.String(); got != `{_id: 7, a: 1, b: 2, sub: {y: {}}}` {
		t.Fatalf("nested exclusion output = %s", got)
	}
	// Exclusion must not mutate the original document, nested documents
	// included: it copies only what it removes from.
	if got := d.String(); got != before {
		t.Fatalf("original document mutated by exclusion projection: %s, was %s", got, before)
	}
}

func TestProjectionErrorsAndEmpty(t *testing.T) {
	if _, err := ParseProjection(bson.D("a", 1, "b", 0)); err == nil {
		t.Fatalf("mixed projection should fail")
	}
	if _, err := ParseProjection(bson.D("a", "yes")); err == nil {
		t.Fatalf("non-numeric projection value should fail")
	}
	p, err := ParseProjection(nil)
	if err != nil {
		t.Fatalf("nil projection: %v", err)
	}
	d := bson.D("a", 1)
	if p.Apply(d) != d {
		t.Fatalf("empty projection should return the document unchanged")
	}
	// Boolean values are accepted.
	pb := MustParseProjection(bson.D("a", true, "b", true))
	if out := pb.Apply(bson.D("a", 1, "b", 2, "c", 3)); out.Has("c") {
		t.Fatalf("bool projection output = %s", out)
	}
}
