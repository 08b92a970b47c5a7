package query

import (
	"testing"

	"docstore/internal/bson"
)

func TestIsOperatorUpdate(t *testing.T) {
	if !IsOperatorUpdate(bson.D("$set", bson.D("a", 1))) {
		t.Fatalf("$set should be an operator update")
	}
	if IsOperatorUpdate(bson.D("a", 1, "b", 2)) {
		t.Fatalf("plain doc should be a replacement")
	}
}

func TestApplyUpdateSetUnset(t *testing.T) {
	d := bson.D(bson.IDKey, 1, "a", 1, "b", 2)
	changed, err := ApplyUpdate(d, bson.D("$set", bson.D("a", 10, "c", 3)), nil)
	if err != nil || !changed {
		t.Fatalf("set: changed=%v err=%v", changed, err)
	}
	if v, _ := d.Get("a"); v != int64(10) {
		t.Fatalf("a = %v", v)
	}
	if v, _ := d.Get("c"); v != int64(3) {
		t.Fatalf("c = %v", v)
	}
	// Setting to the same value reports no change.
	changed, err = ApplyUpdate(d, bson.D("$set", bson.D("a", 10)), nil)
	if err != nil || changed {
		t.Fatalf("idempotent set: changed=%v err=%v", changed, err)
	}
	changed, err = ApplyUpdate(d, bson.D("$unset", bson.D("b", "")), nil)
	if err != nil || !changed {
		t.Fatalf("unset: changed=%v err=%v", changed, err)
	}
	if d.Has("b") {
		t.Fatalf("b still present")
	}
	// Unsetting a missing field reports no change.
	changed, _ = ApplyUpdate(d, bson.D("$unset", bson.D("zzz", "")), nil)
	if changed {
		t.Fatalf("unset of missing field should not change")
	}
}

func TestApplyUpdateSetDottedPathEmbedsDocument(t *testing.T) {
	// This is exactly the shape EmbedDocuments (Figure 4.7) relies on:
	// replacing a foreign-key scalar with the referenced dimension document.
	d := bson.D(bson.IDKey, 1, "ss_sold_date_sk", 2451545)
	dim := bson.D("d_date_sk", 2451545, "d_year", 2001, "d_dow", 6)
	changed, err := ApplyUpdate(d, bson.D("$set", bson.D("ss_sold_date_sk", dim)), nil)
	if err != nil || !changed {
		t.Fatalf("embed set: changed=%v err=%v", changed, err)
	}
	if v, ok := d.GetPath("ss_sold_date_sk.d_year"); !ok || v != int64(2001) {
		t.Fatalf("embedded year = %v, %v", v, ok)
	}
}

func TestApplyUpdateIncMul(t *testing.T) {
	d := bson.D("i", 10, "f", 2.5)
	if _, err := ApplyUpdate(d, bson.D("$inc", bson.D("i", 5)), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("i"); v != int64(15) {
		t.Fatalf("i = %v (%T)", v, v)
	}
	if _, err := ApplyUpdate(d, bson.D("$inc", bson.D("f", 1)), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("f"); v != 3.5 {
		t.Fatalf("f = %v", v)
	}
	if _, err := ApplyUpdate(d, bson.D("$mul", bson.D("i", 2)), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("i"); v != int64(30) {
		t.Fatalf("i after mul = %v", v)
	}
	// $inc on a missing field creates it; $mul creates 0.
	if _, err := ApplyUpdate(d, bson.D("$inc", bson.D("new", 7)), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("new"); v != int64(7) {
		t.Fatalf("new = %v", v)
	}
	if _, err := ApplyUpdate(d, bson.D("$mul", bson.D("new2", 7)), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("new2"); v != int64(0) {
		t.Fatalf("new2 = %v", v)
	}
	// Errors.
	if _, err := ApplyUpdate(bson.D("s", "x"), bson.D("$inc", bson.D("s", 1)), nil); err == nil {
		t.Fatalf("$inc on string should fail")
	}
	if _, err := ApplyUpdate(bson.D("s", 1), bson.D("$inc", bson.D("s", "x")), nil); err == nil {
		t.Fatalf("$inc with string operand should fail")
	}
}

func TestApplyUpdateMinMaxRename(t *testing.T) {
	d := bson.D("v", 10, "old", "keepme")
	if _, err := ApplyUpdate(d, bson.D("$min", bson.D("v", 5)), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("v"); v != int64(5) {
		t.Fatalf("min v = %v", v)
	}
	changed, _ := ApplyUpdate(d, bson.D("$min", bson.D("v", 50)), nil)
	if changed {
		t.Fatalf("min with larger value should not change")
	}
	if _, err := ApplyUpdate(d, bson.D("$max", bson.D("v", 99)), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("v"); v != int64(99) {
		t.Fatalf("max v = %v", v)
	}
	if _, err := ApplyUpdate(d, bson.D("$min", bson.D("created", 3)), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("created"); v != int64(3) {
		t.Fatalf("min on missing field should set it: %v", v)
	}
	if _, err := ApplyUpdate(d, bson.D("$rename", bson.D("old", "renamed")), nil); err != nil {
		t.Fatal(err)
	}
	if d.Has("old") {
		t.Fatalf("old still present")
	}
	if v, _ := d.Get("renamed"); v != "keepme" {
		t.Fatalf("renamed = %v", v)
	}
	changed, _ = ApplyUpdate(d, bson.D("$rename", bson.D("ghost", "spirit")), nil)
	if changed {
		t.Fatalf("rename of missing field should not change")
	}
	if _, err := ApplyUpdate(d, bson.D("$rename", bson.D("renamed", 5)), nil); err == nil {
		t.Fatalf("rename to non-string should fail")
	}
}

func TestApplyUpdateArrayOperators(t *testing.T) {
	d := bson.D("tags", bson.A("a", "b"))
	if _, err := ApplyUpdate(d, bson.D("$push", bson.D("tags", "c")), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("tags"); len(v.([]any)) != 3 {
		t.Fatalf("tags = %v", v)
	}
	if _, err := ApplyUpdate(d, bson.D("$push", bson.D("newarr", 1)), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("newarr"); len(v.([]any)) != 1 {
		t.Fatalf("newarr = %v", v)
	}
	changed, _ := ApplyUpdate(d, bson.D("$addToSet", bson.D("tags", "a")), nil)
	if changed {
		t.Fatalf("addToSet of existing element should not change")
	}
	if _, err := ApplyUpdate(d, bson.D("$addToSet", bson.D("tags", "d")), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("tags"); len(v.([]any)) != 4 {
		t.Fatalf("tags after addToSet = %v", v)
	}
	if _, err := ApplyUpdate(d, bson.D("$pull", bson.D("tags", "b")), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("tags"); len(v.([]any)) != 3 {
		t.Fatalf("tags after pull = %v", v)
	}
	changed, _ = ApplyUpdate(d, bson.D("$pull", bson.D("tags", "zz")), nil)
	if changed {
		t.Fatalf("pull of absent element should not change")
	}
	if _, err := ApplyUpdate(d, bson.D("$pop", bson.D("tags", 1)), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyUpdate(d, bson.D("$pop", bson.D("tags", -1)), nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Get("tags"); len(v.([]any)) != 1 {
		t.Fatalf("tags after pops = %v", v)
	}
	if _, err := ApplyUpdate(d, bson.D("$pop", bson.D("tags", 2)), nil); err == nil {
		t.Fatalf("$pop with 2 should fail")
	}
	if _, err := ApplyUpdate(bson.D("s", 1), bson.D("$push", bson.D("s", 1)), nil); err == nil {
		t.Fatalf("$push to scalar should fail")
	}
	if _, err := ApplyUpdate(bson.D("s", 1), bson.D("$addToSet", bson.D("s", 1)), nil); err == nil {
		t.Fatalf("$addToSet to scalar should fail")
	}
	if _, err := ApplyUpdate(bson.D("s", 1), bson.D("$pull", bson.D("s", 1)), nil); err == nil {
		t.Fatalf("$pull from scalar should fail")
	}
	if _, err := ApplyUpdate(bson.D("s", 1), bson.D("$pop", bson.D("s", 1)), nil); err == nil {
		t.Fatalf("$pop from scalar should fail")
	}
}

func TestApplyUpdateReplacement(t *testing.T) {
	d := bson.D(bson.IDKey, 42, "a", 1, "b", 2)
	changed, err := ApplyUpdate(d, bson.D("x", 9), nil)
	if err != nil || !changed {
		t.Fatalf("replacement: %v %v", changed, err)
	}
	if d.Has("a") || d.Has("b") {
		t.Fatalf("old fields should be gone: %s", d)
	}
	if v, _ := d.Get(bson.IDKey); v != int64(42) {
		t.Fatalf("_id must be preserved, got %v", v)
	}
	if v, _ := d.Get("x"); v != int64(9) {
		t.Fatalf("x = %v", v)
	}
	// Replacement with a conflicting _id is rejected.
	if _, err := ApplyUpdate(d, bson.D(bson.IDKey, 43, "y", 1), nil); err == nil {
		t.Fatalf("replacement changing _id should fail")
	}
	// Replacement with the same _id is fine.
	if _, err := ApplyUpdate(d, bson.D(bson.IDKey, 42, "y", 1), nil); err != nil {
		t.Fatalf("replacement with same _id: %v", err)
	}
}

func TestApplyUpdateImmutableIDAndErrors(t *testing.T) {
	d := bson.D(bson.IDKey, 1, "a", 1)
	if _, err := ApplyUpdate(d, bson.D("$set", bson.D(bson.IDKey, 2)), nil); err == nil {
		t.Fatalf("modifying _id should fail")
	}
	if _, err := ApplyUpdate(d, bson.D("$set", "not-a-doc"), nil); err == nil {
		t.Fatalf("non-document operator argument should fail")
	}
	if _, err := ApplyUpdate(d, bson.D("$frobnicate", bson.D("a", 1)), nil); err == nil {
		t.Fatalf("unknown operator should fail")
	}
}

// TestArrayAppendLeavesSharedArrayUnwritten: $push and $addToSet append to a
// copy of the array they extend. A stored array can have room past its end
// (bson.Normalize keeps arrays as it is given them), and two updates of
// shallow copies of one document share it: appending in place would give
// both the second one's element.
func TestArrayAppendLeavesSharedArrayUnwritten(t *testing.T) {
	for _, op := range []string{"$push", "$addToSet"} {
		arr := make([]any, 2, 8)
		arr[0], arr[1] = "a", "b"
		stored := bson.D("tags", arr)
		one, two := stored.ShallowClone(), stored.ShallowClone()
		if _, err := ApplyUpdate(one, bson.D(op, bson.D("tags", "x")), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ApplyUpdate(two, bson.D(op, bson.D("tags", "y")), nil); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			doc  *bson.Doc
			want []any
		}{{one, bson.A("a", "b", "x")}, {two, bson.A("a", "b", "y")}, {stored, bson.A("a", "b")}} {
			if got, _ := c.doc.Get("tags"); bson.Compare(got, c.want) != 0 {
				t.Errorf("%s: tags = %v, want %v", op, got, c.want)
			}
		}
		if full := arr[:cap(arr)]; full[2] != nil {
			t.Errorf("%s wrote %v into the room past the shared array's end", op, full[2])
		}
	}
}
