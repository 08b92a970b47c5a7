package query

import (
	"testing"

	"docstore/internal/bson"
)

func TestFieldConstraintsEquality(t *testing.T) {
	cs := FieldConstraints(bson.D("cd_gender", "M", "d_year", 2001))
	if len(cs) != 2 {
		t.Fatalf("got %d constraints", len(cs))
	}
	g := cs["cd_gender"]
	if !g.IsPoint() || len(g.Points) != 1 || g.Points[0] != "M" {
		t.Fatalf("gender constraint = %+v", g)
	}
	y := cs["d_year"]
	if !y.IsPoint() || y.Points[0] != int64(2001) {
		t.Fatalf("year constraint = %+v", y)
	}
}

func TestFieldConstraintsRange(t *testing.T) {
	cs := FieldConstraints(bson.D("i_current_price", bson.D("$gte", 0.99, "$lte", 1.49)))
	c := cs["i_current_price"]
	if c == nil || !c.IsRange() || c.IsPoint() {
		t.Fatalf("constraint = %+v", c)
	}
	if c.Min != 0.99 || !c.MinInclusive || c.Max != 1.49 || !c.MaxInclusive {
		t.Fatalf("range = %+v", c)
	}
	// Exclusive bounds.
	cs = FieldConstraints(bson.D("v", bson.D("$gt", 1, "$lt", 5)))
	c = cs["v"]
	if c.MinInclusive || c.MaxInclusive {
		t.Fatalf("bounds should be exclusive: %+v", c)
	}
	// Tighter bounds win.
	cs = FieldConstraints(bson.D("$and", bson.A(
		bson.D("v", bson.D("$gte", 1)),
		bson.D("v", bson.D("$gte", 3)),
		bson.D("v", bson.D("$lte", 10)),
		bson.D("v", bson.D("$lte", 7)),
	)))
	c = cs["v"]
	if c.Min != int64(3) || c.Max != int64(7) {
		t.Fatalf("tightened range = %+v", c)
	}
}

func TestFieldConstraintsIn(t *testing.T) {
	cs := FieldConstraints(bson.D("s_city", bson.D("$in", bson.A("Midway", "Fairview"))))
	c := cs["s_city"]
	if !c.IsPoint() || len(c.Points) != 2 {
		t.Fatalf("constraint = %+v", c)
	}
	// Intersection of $in and $eq.
	cs = FieldConstraints(bson.D("$and", bson.A(
		bson.D("k", bson.D("$in", bson.A(1, 2, 3))),
		bson.D("k", 2),
	)))
	c = cs["k"]
	if len(c.Points) != 1 || c.Points[0] != int64(2) {
		t.Fatalf("intersected points = %+v", c.Points)
	}
	// Disjoint conditions give an empty point set.
	cs = FieldConstraints(bson.D("$and", bson.A(bson.D("k", 1), bson.D("k", 2))))
	c = cs["k"]
	if c.Points == nil || len(c.Points) != 0 {
		t.Fatalf("disjoint points = %+v", c.Points)
	}
}

func TestFieldConstraintsIgnoresDisjunctions(t *testing.T) {
	cs := FieldConstraints(bson.D(
		"$or", bson.A(bson.D("a", 1), bson.D("b", 2)),
		"c", 3,
	))
	if _, ok := cs["a"]; ok {
		t.Fatalf("$or branches should not constrain fields")
	}
	if _, ok := cs["c"]; !ok {
		t.Fatalf("top-level field next to $or should still constrain")
	}
	cs = FieldConstraints(bson.D("$nor", bson.A(bson.D("a", 1))))
	if len(cs) != 0 {
		t.Fatalf("$nor should contribute nothing, got %v", cs)
	}
}

func TestFieldConstraintsNestedAnd(t *testing.T) {
	// Shape of the thesis query filters: $and of single-field docs.
	f := bson.D("$and", bson.A(
		bson.D("ss_cdemo_sk.cd_gender", "M"),
		bson.D("ss_sold_date_sk.d_year", 2001),
		bson.D("$and", bson.A(bson.D("deep", 7))),
	))
	cs := FieldConstraints(f)
	if len(cs) != 3 {
		t.Fatalf("got %d constraints: %v", len(cs), cs)
	}
	if cs["deep"].Points[0] != int64(7) {
		t.Fatalf("nested $and constraint missing")
	}
}

func TestConstraintFor(t *testing.T) {
	c := ConstraintFor(bson.D("ss_ticket_number", 1234), "ss_ticket_number")
	if c == nil || !c.IsPoint() {
		t.Fatalf("ConstraintFor = %+v", c)
	}
	if ConstraintFor(bson.D("a", 1), "b") != nil {
		t.Fatalf("missing field should have no constraint")
	}
	if ConstraintFor(nil, "a") != nil {
		t.Fatalf("nil filter should have no constraint")
	}
}

func TestConstraintIsEmpty(t *testing.T) {
	for _, tc := range []struct {
		filter *bson.Doc
		empty  bool
	}{
		{bson.D("k", bson.D("$in", bson.A())), true},
		{bson.D("$and", bson.A(bson.D("k", 1), bson.D("k", 2))), true},
		{bson.D("$and", bson.A(bson.D("k", bson.D("$in", bson.A(1, 2))), bson.D("k", bson.D("$eq", 3)))), true},
		{bson.D("k", bson.D("$gte", 5, "$lte", 3)), true},
		{bson.D("k", bson.D("$gt", 3, "$lte", 3)), true},
		{bson.D("k", bson.D("$gte", "a", "$lte", 9)), true}, // every string sorts above every number
		{bson.D("k", bson.D("$gte", 3, "$lte", 3)), false},
		{bson.D("k", bson.D("$gte", 3, "$lte", "z")), false},
		{bson.D("k", bson.D("$in", bson.A(1))), false},
		{bson.D("k", bson.D("$gte", 3)), false},
		{bson.D("k", bson.D("$exists", true)), false},
	} {
		c := ConstraintFor(tc.filter, "k")
		if c.IsEmpty() != tc.empty {
			t.Errorf("%s: IsEmpty = %v, want %v (%+v)", tc.filter, c.IsEmpty(), tc.empty, c)
		}
		if tc.empty && c.IsPoint() {
			t.Errorf("%s: an empty constraint reads as a point set: %+v", tc.filter, c)
		}
	}
	// Of two equal bounds the exclusive one is the tighter.
	c := ConstraintFor(bson.D("$and", bson.A(bson.D("k", bson.D("$gte", 3)), bson.D("k", bson.D("$gt", 3)))), "k")
	if c.MinInclusive {
		t.Fatalf("$gte 3 and $gt 3 left an inclusive bound: %+v", c)
	}
	c = ConstraintFor(bson.D("$and", bson.A(bson.D("k", bson.D("$lt", 3)), bson.D("k", bson.D("$lte", 3)))), "k")
	if c.MaxInclusive {
		t.Fatalf("$lt 3 and $lte 3 left an inclusive bound: %+v", c)
	}
}
