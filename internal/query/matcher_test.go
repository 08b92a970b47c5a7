package query

import (
	"math/rand"
	"sync"
	"testing"

	"docstore/internal/bson"
)

func mustMatch(t *testing.T, filter, doc *bson.Doc) {
	t.Helper()
	m, err := Compile(filter)
	if err != nil {
		t.Fatalf("Compile(%s): %v", filter, err)
	}
	if !m.Matches(doc) {
		t.Errorf("filter %s should match %s", filter, doc)
	}
}

func mustNotMatch(t *testing.T, filter, doc *bson.Doc) {
	t.Helper()
	m, err := Compile(filter)
	if err != nil {
		t.Fatalf("Compile(%s): %v", filter, err)
	}
	if m.Matches(doc) {
		t.Errorf("filter %s should NOT match %s", filter, doc)
	}
}

func TestMatcherEquality(t *testing.T) {
	doc := bson.D("cd_gender", "M", "cd_dep_count", 2, "price", 1.25)
	mustMatch(t, bson.D("cd_gender", "M"), doc)
	mustNotMatch(t, bson.D("cd_gender", "F"), doc)
	mustMatch(t, bson.D("cd_dep_count", 2), doc)
	mustMatch(t, bson.D("cd_dep_count", 2.0), doc) // int/float equivalence
	mustMatch(t, bson.D("price", 1.25), doc)
	mustNotMatch(t, bson.D("missing", "x"), doc)
	// Explicit $eq.
	mustMatch(t, bson.D("cd_gender", bson.D("$eq", "M")), doc)
	// Empty filter matches everything.
	mustMatch(t, bson.NewDoc(0), doc)
	// Nil-valued equality matches missing fields.
	mustMatch(t, bson.D("missing", nil), doc)
	mustNotMatch(t, bson.D("cd_gender", nil), doc)
}

func TestMatcherComparisons(t *testing.T) {
	doc := bson.D("i_current_price", 1.20, "d_year", 2001)
	mustMatch(t, bson.D("i_current_price", bson.D("$gte", 0.99, "$lte", 1.49)), doc)
	mustNotMatch(t, bson.D("i_current_price", bson.D("$gte", 1.49)), doc)
	mustMatch(t, bson.D("d_year", bson.D("$gt", 2000)), doc)
	mustNotMatch(t, bson.D("d_year", bson.D("$gt", 2001)), doc)
	mustMatch(t, bson.D("d_year", bson.D("$gte", 2001)), doc)
	mustMatch(t, bson.D("d_year", bson.D("$lt", 2002)), doc)
	mustNotMatch(t, bson.D("d_year", bson.D("$lt", 2001)), doc)
	mustMatch(t, bson.D("d_year", bson.D("$lte", 2001)), doc)
	mustMatch(t, bson.D("d_year", bson.D("$ne", 1999)), doc)
	mustNotMatch(t, bson.D("d_year", bson.D("$ne", 2001)), doc)
	// Range comparisons never match across types.
	mustNotMatch(t, bson.D("d_year", bson.D("$gt", "1999")), doc)
	// Missing field never satisfies a range.
	mustNotMatch(t, bson.D("absent", bson.D("$gt", 0)), doc)
}

func TestMatcherInNin(t *testing.T) {
	doc := bson.D("d_dow", 6, "s_city", "Midway")
	mustMatch(t, bson.D("d_dow", bson.D("$in", bson.A(6, 0))), doc)
	mustNotMatch(t, bson.D("d_dow", bson.D("$in", bson.A(1, 2))), doc)
	mustMatch(t, bson.D("s_city", bson.D("$in", bson.A("Midway", "Fairview"))), doc)
	mustMatch(t, bson.D("d_dow", bson.D("$nin", bson.A(1, 2))), doc)
	mustNotMatch(t, bson.D("d_dow", bson.D("$nin", bson.A(6))), doc)
	// $in with null matches documents missing the field.
	mustMatch(t, bson.D("absent", bson.D("$in", bson.A(nil, 5))), doc)
}

func TestMatcherLogicalOperators(t *testing.T) {
	doc := bson.D("p_channel_email", "N", "p_channel_event", "Y", "d_year", 2001)
	mustMatch(t, bson.D("$or", bson.A(
		bson.D("p_channel_email", "N"),
		bson.D("p_channel_event", "N"),
	)), doc)
	mustNotMatch(t, bson.D("$or", bson.A(
		bson.D("p_channel_email", "Y"),
		bson.D("p_channel_event", "N"),
	)), doc)
	mustMatch(t, bson.D("$and", bson.A(
		bson.D("p_channel_email", "N"),
		bson.D("d_year", 2001),
	)), doc)
	mustNotMatch(t, bson.D("$and", bson.A(
		bson.D("p_channel_email", "N"),
		bson.D("d_year", 1999),
	)), doc)
	mustMatch(t, bson.D("$nor", bson.A(
		bson.D("p_channel_email", "Y"),
		bson.D("d_year", 1999),
	)), doc)
	mustNotMatch(t, bson.D("$nor", bson.A(
		bson.D("p_channel_email", "N"),
	)), doc)
	mustMatch(t, bson.D("$not", bson.D("d_year", 1999)), doc)
	mustNotMatch(t, bson.D("$not", bson.D("d_year", 2001)), doc)
	// Implicit AND of multiple fields.
	mustMatch(t, bson.D("p_channel_email", "N", "d_year", 2001), doc)
	mustNotMatch(t, bson.D("p_channel_email", "N", "d_year", 1999), doc)
}

func TestMatcherExistsTypeSize(t *testing.T) {
	doc := bson.D("ss_item_sk", 17, "tags", bson.A("a", "b", "c"), "name", "store")
	mustMatch(t, bson.D("ss_item_sk", bson.D("$exists", true)), doc)
	mustNotMatch(t, bson.D("ss_item_sk", bson.D("$exists", false)), doc)
	mustMatch(t, bson.D("absent", bson.D("$exists", false)), doc)
	mustNotMatch(t, bson.D("absent", bson.D("$exists", true)), doc)
	mustMatch(t, bson.D("ss_item_sk", bson.D("$type", "number")), doc)
	mustMatch(t, bson.D("name", bson.D("$type", "string")), doc)
	mustNotMatch(t, bson.D("name", bson.D("$type", "number")), doc)
	mustMatch(t, bson.D("tags", bson.D("$size", 3)), doc)
	mustNotMatch(t, bson.D("tags", bson.D("$size", 2)), doc)
	mustNotMatch(t, bson.D("name", bson.D("$size", 1)), doc)
}

func TestMatcherModRegexAll(t *testing.T) {
	doc := bson.D("qty", 12, "city", "Fairview", "tags", bson.A("x", "y", "z"))
	mustMatch(t, bson.D("qty", bson.D("$mod", bson.A(4, 0))), doc)
	mustNotMatch(t, bson.D("qty", bson.D("$mod", bson.A(5, 0))), doc)
	mustMatch(t, bson.D("city", bson.D("$regex", "^Fair")), doc)
	mustNotMatch(t, bson.D("city", bson.D("$regex", "^Mid")), doc)
	mustMatch(t, bson.D("tags", bson.D("$all", bson.A("x", "z"))), doc)
	mustNotMatch(t, bson.D("tags", bson.D("$all", bson.A("x", "w"))), doc)
}

func TestMatcherArraySemantics(t *testing.T) {
	doc := bson.D("scores", bson.A(70, 85, 92))
	// Equality against any element.
	mustMatch(t, bson.D("scores", 85), doc)
	mustNotMatch(t, bson.D("scores", 60), doc)
	// Range against any element.
	mustMatch(t, bson.D("scores", bson.D("$gt", 90)), doc)
	mustNotMatch(t, bson.D("scores", bson.D("$gt", 95)), doc)
	// Whole-array equality.
	mustMatch(t, bson.D("scores", bson.A(70, 85, 92)), doc)
}

func TestMatcherNestedDocumentsAndDottedPaths(t *testing.T) {
	doc := bson.D(
		"ss_cdemo_sk", bson.D("cd_gender", "M", "cd_marital_status", "M", "cd_education_status", "4 yr Degree"),
		"ss_promo_sk", bson.D("p_channel_email", "N", "p_channel_event", "N"),
		"ss_sold_date_sk", bson.D("d_year", 2001),
	)
	// This is the shape of the thesis' Query 7 $match stage (Appendix B).
	filter := bson.D("$and", bson.A(
		bson.D("ss_cdemo_sk.cd_gender", "M"),
		bson.D("ss_cdemo_sk.cd_marital_status", "M"),
		bson.D("ss_cdemo_sk.cd_education_status", "4 yr Degree"),
		bson.D("$or", bson.A(
			bson.D("ss_promo_sk.p_channel_email", "N"),
			bson.D("ss_promo_sk.p_channel_event", "N"),
		)),
		bson.D("ss_sold_date_sk.d_year", 2001),
	))
	mustMatch(t, filter, doc)
	doc2 := doc.Clone()
	cd, _ := doc2.Get("ss_cdemo_sk")
	cd.(*bson.Doc).Set("cd_gender", "F")
	mustNotMatch(t, filter, doc2)
}

func TestMatcherDottedPathThroughArray(t *testing.T) {
	doc := bson.D("books", bson.A(
		bson.D("title", "MongoDB", "pages", 216),
		bson.D("title", "Java in a Nutshell", "pages", 418),
	))
	mustMatch(t, bson.D("books.pages", bson.D("$gt", 400)), doc)
	mustNotMatch(t, bson.D("books.pages", bson.D("$gt", 500)), doc)
	mustMatch(t, bson.D("books.title", "MongoDB"), doc)
}

func TestMatcherElemMatch(t *testing.T) {
	doc := bson.D("results", bson.A(
		bson.D("product", "a", "score", 8),
		bson.D("product", "b", "score", 5),
	), "nums", bson.A(1, 5, 9))
	mustMatch(t, bson.D("results", bson.D("$elemMatch", bson.D("product", "a", "score", bson.D("$gte", 8)))), doc)
	mustNotMatch(t, bson.D("results", bson.D("$elemMatch", bson.D("product", "b", "score", bson.D("$gte", 8)))), doc)
	mustMatch(t, bson.D("nums", bson.D("$elemMatch", bson.D("$gte", 5, "$lt", 6))), doc)
	mustNotMatch(t, bson.D("nums", bson.D("$elemMatch", bson.D("$gt", 9))), doc)
}

func TestMatcherFieldNotOperator(t *testing.T) {
	doc := bson.D("price", 10)
	mustMatch(t, bson.D("price", bson.D("$not", bson.D("$gt", 20))), doc)
	mustNotMatch(t, bson.D("price", bson.D("$not", bson.D("$gt", 5))), doc)
}

func TestCompileErrors(t *testing.T) {
	bad := []*bson.Doc{
		bson.D("$or", "not-an-array"),
		bson.D("$and", bson.A()),
		bson.D("$or", bson.A("scalar")),
		bson.D("$not", 5),
		bson.D("$unknownop", 1),
		bson.D("f", bson.D("$in", 5)),
		bson.D("f", bson.D("$nin", 5)),
		bson.D("f", bson.D("$mod", bson.A(1))),
		bson.D("f", bson.D("$mod", bson.A(0, 1))),
		bson.D("f", bson.D("$regex", 5)),
		bson.D("f", bson.D("$regex", "([")),
		bson.D("f", bson.D("$all", 5)),
		bson.D("f", bson.D("$elemMatch", 5)),
		bson.D("f", bson.D("$size", "x")),
		bson.D("f", bson.D("$type", 5)),
		bson.D("f", bson.D("$bogus", 1)),
		bson.D("$expr", bson.D("$gt", bson.A(1, 2))),
	}
	for _, f := range bad {
		if _, err := Compile(f); err == nil {
			t.Errorf("Compile(%s) should fail", f)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustCompile should panic on a bad filter")
		}
	}()
	MustCompile(bson.D("$bad", 1))
}

func TestNilMatcherMatchesEverything(t *testing.T) {
	var m *Matcher
	if !m.Matches(bson.D("a", 1)) {
		t.Fatalf("nil matcher should match")
	}
	if m.String() != "{}" {
		t.Fatalf("nil matcher String = %q", m.String())
	}
}

// naiveMatchEquality is an independent oracle for simple single-field
// equality filters used in the property test below.
func naiveMatchEquality(doc *bson.Doc, field string, want any) bool {
	v, ok := doc.Get(field)
	if !ok {
		return want == nil
	}
	return bson.Compare(v, want) == 0
}

func TestMatcherEqualityAgainstNaiveOracleProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	fields := []string{"a", "b", "c", "d"}
	values := []any{int64(0), int64(1), int64(2), "x", "y", true, nil, 2.5}
	for i := 0; i < 3000; i++ {
		doc := bson.NewDoc(3)
		for _, f := range fields {
			if r.Intn(2) == 0 {
				doc.Set(f, values[r.Intn(len(values))])
			}
		}
		field := fields[r.Intn(len(fields))]
		want := values[r.Intn(len(values))]
		m := MustCompile(bson.D(field, want))
		got := m.Matches(doc)
		expect := naiveMatchEquality(doc, field, bson.Normalize(want))
		if got != expect {
			t.Fatalf("filter {%s: %v} vs %s: matcher=%v naive=%v", field, want, doc, got, expect)
		}
	}
}

func TestMatcherRangeAgainstNaiveOracleProperty(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for i := 0; i < 3000; i++ {
		val := int64(r.Intn(100))
		lo := int64(r.Intn(100))
		hi := lo + int64(r.Intn(50))
		doc := bson.D("v", val)
		m := MustCompile(bson.D("v", bson.D("$gte", lo, "$lte", hi)))
		want := val >= lo && val <= hi
		if got := m.Matches(doc); got != want {
			t.Fatalf("v=%d in [%d,%d]: matcher=%v want=%v", val, lo, hi, got, want)
		}
	}
}

// TestMatchingTopLevelFieldsAllocatesNothing: a compiled filter over
// single-segment paths resolves each field in place — no path split, no
// result slice — so examining a document costs no allocation at all.
func TestMatchingTopLevelFieldsAllocatesNothing(t *testing.T) {
	m := MustCompile(bson.D(
		"g", 7,
		"price", bson.D("$gte", 1.0, "$lt", 9.0),
		"state", bson.D("$in", bson.A("TN", "SD")),
		"gone", bson.D("$exists", false),
	))
	doc := bson.D(bson.IDKey, 1, "g", 7, "price", 4.5, "state", "SD", "tags", bson.A("a", "b"))
	if !m.Matches(doc) {
		t.Fatalf("filter should match %v", doc)
	}
	if allocs := testing.AllocsPerRun(200, func() { m.Matches(doc) }); allocs != 0 {
		t.Fatalf("matching four top-level fields allocated %.1f times a document, want 0", allocs)
	}
}

// denormalizedSale is a document shaped like the denormalized store_sales
// fact: top-level measures and one embedded document per dimension.
func denormalizedSale(ticket int) *bson.Doc {
	return bson.D(
		bson.IDKey, ticket,
		"ss_ticket_number", ticket,
		"ss_quantity", 10+ticket%7,
		"ss_sold_date_sk", bson.D("d_date_sk", 2451000+ticket, "d_year", 2001, "d_dow", 6),
		"ss_store_sk", bson.D("s_store_sk", 4, "s_city", "Midway", "s_state", "TN"),
		"ss_hdemo_sk", bson.D("hd_demo_sk", 77, "hd_dep_count", 5, "hd_vehicle_count", 3),
		"ss_addr_sk", bson.D("ca_address_sk", 9000+ticket, "ca_city", "Fairview"),
		"ss_customer_sk", bson.D("c_customer_sk", 100+ticket, "c_last_name", "Garrison"),
	)
}

// TestDottedFilterMatchAllocates: a six-clause $and over two-segment paths —
// the shape of Query 46's $match — examines a denormalized document without
// allocating: 0 a document. The parent commit allocated 6, the one-element
// result slice of every clause evaluated.
func TestDottedFilterMatchAllocates(t *testing.T) {
	m := MustCompile(bson.D("$and", bson.A(
		bson.D("ss_store_sk.s_city", bson.D("$in", bson.A("Midway", "Fairview"))),
		bson.D("ss_sold_date_sk.d_dow", bson.D("$in", bson.A(6, 0))),
		bson.D("ss_sold_date_sk.d_year", bson.D("$in", bson.A(1999, 2000, 2001))),
		bson.D("ss_hdemo_sk.hd_dep_count", 5),
		bson.D("ss_addr_sk.ca_address_sk", bson.D("$exists", true)),
		bson.D("ss_customer_sk.c_customer_sk", bson.D("$exists", true)),
	)))
	doc := denormalizedSale(3)
	if !m.Matches(doc) {
		t.Fatalf("filter should match %v", doc)
	}
	if allocs := testing.AllocsPerRun(200, func() { m.Matches(doc) }); allocs != 0 {
		t.Fatalf("matching six dotted clauses allocated %.1f times a document, want 0", allocs)
	}
}

// TestSharedAcrossGoroutines: a Matcher is shared by every scan that uses it,
// and its paths remember positions. Eight goroutines match one Matcher
// against documents of two layouts, interleaved, so the remembered positions
// are wrong about half the time and are written concurrently (the race
// detector watches); every verdict equals the single-goroutine run's.
func TestSharedAcrossGoroutines(t *testing.T) {
	m := MustCompile(bson.D(
		"ss_store_sk.s_city", "Midway",
		"ss_hdemo_sk.hd_dep_count", bson.D("$gte", 5),
		"ss_quantity", bson.D("$lt", 15),
		"ss_items.i_class", bson.D("$in", bson.A("dresses", "pants")),
	))
	var docs []*bson.Doc
	for i := 0; i < 400; i++ {
		d := denormalizedSale(i)
		if i%3 == 0 {
			d.Set("ss_store_sk", bson.D("s_city", "Oakland"))
		}
		if i%2 == 1 {
			// The other layout: the same fields in reverse order, inside the
			// embedded documents too.
			rev := bson.NewDoc(d.Len())
			for j := d.Len() - 1; j >= 0; j-- {
				f := d.Fields()[j]
				if sub, ok := f.Value.(*bson.Doc); ok {
					r := bson.NewDoc(sub.Len())
					for k := sub.Len() - 1; k >= 0; k-- {
						r.Set(sub.Fields()[k].Key, sub.Fields()[k].Value)
					}
					f.Value = r
				}
				rev.Set(f.Key, f.Value)
			}
			d = rev
		}
		d.Set("ss_items", bson.A(bson.D("i_class", "shirts"), bson.D("i_class", []string{"dresses", "pants", "hats"}[i%3])))
		docs = append(docs, d)
	}
	want := make([]bool, len(docs))
	matched := 0
	for i, d := range docs {
		if want[i] = m.Matches(d); want[i] {
			matched++
		}
	}
	if matched == 0 || matched == len(docs) {
		t.Fatalf("%d of %d documents match; the test needs both verdicts", matched, len(docs))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i := range docs {
					at := (i*7 + g*13 + round) % len(docs)
					if got := m.Matches(docs[at]); got != want[at] {
						t.Errorf("goroutine %d: document %d matched %v, alone %v", g, at, got, want[at])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
