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

// TestResidualDropsOnlyExactClauses has one row per rule of
// Constraint.Exact and Matcher.Residual: the clauses on field a are dropped
// from the residual exactly when an index scan over a's constraint means what
// they mean. Every filter also asks for b: 1, and each row carries a document
// that has it but breaks a clause on a: the residual matches that document if
// and only if the clauses went — so a row that says "kept" fails the moment
// its rule is loosened, and one that says "dropped" the moment it is lost.
func TestResidualDropsOnlyExactClauses(t *testing.T) {
	and := func(clauses ...any) *bson.Doc { return bson.D("$and", bson.A(clauses...)) }
	rows := []struct {
		rule    string
		a       *bson.Doc // the conjunctive clauses on a
		breaks  any       // a value of a that violates them
		dropped bool
	}{
		{"literal equality", bson.D("a", 5), 6, true},
		{"$eq of a scalar", bson.D("a", bson.D("$eq", "x")), "y", true},
		{"$in of scalars, one repeated", bson.D("a", bson.D("$in", bson.A(1, 2, 2))), 3, true},
		{"$in and $eq intersected", and(bson.D("a", bson.D("$in", bson.A(1, 2, 3))), bson.D("a", 2)), 1, true},
		{"an empty $in", bson.D("a", bson.D("$in", bson.A())), 1, true},
		{"closed range of one type", bson.D("a", bson.D("$gte", 1, "$lte", 5)), 6, true},
		{"open range of one type", bson.D("a", bson.D("$gt", 1, "$lt", 5)), 5, true},
		{"half-open range", bson.D("a", bson.D("$gte", 1.5, "$lt", 5)), 1, true},
		{"the two bounds in two clauses", and(bson.D("a", bson.D("$gte", 1)), bson.D("a", bson.D("$lte", 5))), 0, true},
		{"a range of strings", bson.D("a", bson.D("$gte", "b", "$lte", "d")), "e", true},
		{"$in of a bool", bson.D("a", bson.D("$in", bson.A(true))), false, true},

		{"no upper bound: the scan runs on into other types", bson.D("a", bson.D("$gte", 1)), "s", false},
		{"no lower bound", bson.D("a", bson.D("$lt", 5)), nil, false},
		{"bounds of two types", bson.D("a", bson.D("$gte", 3, "$lte", "z")), 4, false},
		{"two lower bounds of two types", and(bson.D("a", bson.D("$gte", 1)), bson.D("a", bson.D("$gte", "b", "$lte", "z"))), "c", false},
		{"two upper bounds of two types", and(bson.D("a", bson.D("$lte", "z")), bson.D("a", bson.D("$gte", 1, "$lte", 9))), 5, false},
		{"$ne beside the bounds", bson.D("a", bson.D("$gte", 1, "$lte", 5, "$ne", 3)), 3, false},
		{"$nin beside the bounds", bson.D("a", bson.D("$gte", 1, "$lte", 5, "$nin", bson.A(3))), 3, false},
		{"$exists beside a point", bson.D("a", bson.D("$eq", 5, "$exists", false)), 5, false},
		{"an unfolded operator in another clause", and(bson.D("a", 5), bson.D("a", bson.D("$type", "string"))), 5, false},
		{"null also matches a missing field", bson.D("a", nil), 1, false},
		{"null among the $in values", bson.D("a", bson.D("$in", bson.A(1, nil))), 2, false},
		{"an array operand compares whole values", bson.D("a", bson.A(1, 2)), 3, false},
		{"a document operand", bson.D("a", bson.D("x", 1)), 3, false},
		{"array bounds", bson.D("a", bson.D("$gte", bson.A(1), "$lte", bson.A(5))), 3, false},
		{"null bounds", bson.D("a", bson.D("$gte", nil, "$lte", nil)), 3, false},
		{"points beside a bound", bson.D("a", bson.D("$in", bson.A(1, 2), "$gte", 2)), 1, false},
		{"$not around a point", bson.D("a", bson.D("$not", bson.D("$eq", 5))), 5, false},
	}
	for _, row := range rows {
		filter := bson.D("b", 1)
		for _, f := range row.a.Fields() {
			filter.Set(f.Key, f.Value)
		}
		m := MustCompile(filter)
		var covered []string
		for field, c := range FieldConstraints(filter) {
			if field == "a" && c.Exact() {
				covered = append(covered, field)
			}
		}
		res := m.Residual(covered)
		probe := bson.D("a", row.breaks, "b", 1)
		if m.Matches(probe) {
			t.Fatalf("%s: %s matches %s, which should break it", row.rule, filter, probe)
		}
		if got := res.Matches(probe); got != row.dropped {
			t.Errorf("%s: the residual of %s matches %s: %v, so the clauses on a were dropped: %v, want %v",
				row.rule, filter, probe, got, got, row.dropped)
		}
		if res.Matches(bson.D("a", row.breaks, "b", 2)) {
			t.Errorf("%s: the residual of %s lost the clause on b", row.rule, filter)
		}
		if !row.dropped && res != m {
			t.Errorf("%s: nothing to drop, yet Residual built a new matcher", row.rule)
		}
		if res.Filter() != filter {
			t.Errorf("%s: the residual forgot the filter it came from", row.rule)
		}
		// With nothing else in the filter an exact scan answers all of it.
		if alone := MustCompile(row.a); row.dropped && alone.Residual([]string{"a"}) != nil {
			t.Errorf("%s: %s fully covered should leave the nil matcher", row.rule, row.a)
		}
	}

	// A dotted path is a field like any other.
	dotted := MustCompile(bson.D("x.y", 5, "b", 1)).Residual([]string{"x.y"})
	if !dotted.Matches(bson.D("x", bson.D("y", 6), "b", 1)) || dotted.Matches(bson.D("x", bson.D("y", 5), "b", 2)) {
		t.Errorf("the residual of a dotted clause kept it, or lost its sibling")
	}

	// What Residual may touch is the conjunctive part and nothing else,
	// whatever the caller claims to have covered.
	five := bson.D("a", 5)
	for _, tc := range []struct {
		filter *bson.Doc
		probe  *bson.Doc
	}{
		{bson.D("$or", bson.A(five, bson.D("b", 1))), bson.D("a", 6, "b", 2)},
		{bson.D("$nor", bson.A(five)), bson.D("a", 5)},
		{bson.D("$not", five), bson.D("a", 5)},
		{bson.D("arr", bson.D("$elemMatch", five)), bson.D("arr", bson.A(bson.D("a", 6)))},
		{bson.D("$and", bson.A(bson.D("$or", bson.A(five, bson.D("a", 7))), bson.D("b", 1))), bson.D("a", 6, "b", 1)},
	} {
		m := MustCompile(tc.filter)
		if res := m.Residual([]string{"a"}); res != m || res.Matches(tc.probe) {
			t.Errorf("Residual reached into %s", tc.filter)
		}
	}
	// A covered clause goes from every level of $and, its siblings stay, and
	// the original matcher is left as it was.
	nested := MustCompile(bson.D("a", 5, "$and", bson.A(
		bson.D("b", 1),
		bson.D("$and", bson.A(bson.D("a", bson.D("$in", bson.A(5, 6))), bson.D("c", bson.D("$exists", true)))),
		bson.D("$or", bson.A(bson.D("a", 5), bson.D("d", 1))),
	)))
	res := nested.Residual([]string{"a"})
	for _, tc := range []struct {
		doc        *bson.Doc
		full, rest bool
	}{
		{bson.D("a", 5, "b", 1, "c", 0), true, true},
		{bson.D("a", 9, "b", 1, "c", 0, "d", 1), false, true},
		{bson.D("a", 9, "b", 1, "c", 0), false, false}, // the $or still wants a: 5 or d: 1
		{bson.D("a", 5, "b", 2, "c", 0), false, false},
		{bson.D("a", 5, "b", 1), false, false},
	} {
		if got := nested.Matches(tc.doc); got != tc.full {
			t.Errorf("full matcher on %s = %v, want %v", tc.doc, got, tc.full)
		}
		if got := res.Matches(tc.doc); got != tc.rest {
			t.Errorf("residual on %s = %v, want %v", tc.doc, got, tc.rest)
		}
	}
}
