package bson

import (
	"testing"
	"time"
)

func TestDocSetGet(t *testing.T) {
	d := NewDoc(2)
	d.Set("a", 1)
	d.Set("b", "hello")
	if v, ok := d.Get("a"); !ok || v != int64(1) {
		t.Fatalf("Get(a) = %v, %v; want 1, true", v, ok)
	}
	if v, ok := d.Get("b"); !ok || v != "hello" {
		t.Fatalf("Get(b) = %v, %v; want hello, true", v, ok)
	}
	if _, ok := d.Get("c"); ok {
		t.Fatalf("Get(c) should not exist")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
}

func TestDocSetOverwritePreservesOrder(t *testing.T) {
	d := D("x", 1, "y", 2, "z", 3)
	d.Set("y", 20)
	keys := d.Keys()
	want := []string{"x", "y", "z"}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
	if v, _ := d.Get("y"); v != int64(20) {
		t.Fatalf("y = %v, want 20", v)
	}
}

func TestDConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for odd arguments")
		}
	}()
	D("a", 1, "b")
}

func TestDocDelete(t *testing.T) {
	d := D("a", 1, "b", 2, "c", 3)
	if !d.Delete("b") {
		t.Fatalf("Delete(b) = false, want true")
	}
	if d.Delete("b") {
		t.Fatalf("second Delete(b) = true, want false")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Has("b") {
		t.Fatalf("b should be gone")
	}
}

func TestDocGetOr(t *testing.T) {
	d := D("a", 1)
	if v := d.GetOr("a", 99); v != int64(1) {
		t.Fatalf("GetOr(a) = %v", v)
	}
	if v := d.GetOr("missing", 99); v != 99 {
		t.Fatalf("GetOr(missing) = %v", v)
	}
}

func TestDocGetPath(t *testing.T) {
	d := D("customer", D("address", D("city", "Cincinnati", "zip", "45221")))
	v, ok := d.GetPath("customer.address.city")
	if !ok || v != "Cincinnati" {
		t.Fatalf("GetPath = %v, %v", v, ok)
	}
	if _, ok := d.GetPath("customer.address.street"); ok {
		t.Fatalf("missing path should not resolve")
	}
	if _, ok := d.GetPath("customer.name.first"); ok {
		t.Fatalf("path through missing field should not resolve")
	}
	// Single-segment path.
	if v, ok := d.GetPath("customer"); !ok || v == nil {
		t.Fatalf("single segment path failed")
	}
}

func TestDocLookupPathAllThroughArrays(t *testing.T) {
	d := D("books", A(
		D("title", "MongoDB", "pages", 216),
		D("title", "Java in a Nutshell", "pages", 418),
	))
	vals := d.LookupPathAll("books.pages")
	if len(vals) != 2 {
		t.Fatalf("got %d values, want 2", len(vals))
	}
	if vals[0] != int64(216) || vals[1] != int64(418) {
		t.Fatalf("vals = %v", vals)
	}
	if got := d.LookupPathAll("books.missing"); len(got) != 0 {
		t.Fatalf("missing leaf should yield nothing, got %v", got)
	}
	// A path compiled in advance resolves to the same values.
	if vs := NewPath("books.pages").Lookup(d); vs.Len() != 2 || vs.At(0) != vals[0] || vs.At(1) != vals[1] {
		t.Fatalf("Path.Lookup = %v, want %v", vs, vals)
	}
	// A single segment is the field itself, an array included, or nothing.
	if got := d.LookupPathAll("books"); len(got) != 1 || len(got[0].([]any)) != 2 {
		t.Fatalf("single segment = %v", got)
	}
	if got := d.LookupPathAll("missing"); got != nil {
		t.Fatalf("missing single segment = %v, want nil", got)
	}
}

func TestDocSetPath(t *testing.T) {
	d := NewDoc(1)
	if err := d.SetPath("a.b.c", 7); err != nil {
		t.Fatalf("SetPath: %v", err)
	}
	v, ok := d.GetPath("a.b.c")
	if !ok || v != int64(7) {
		t.Fatalf("GetPath after SetPath = %v, %v", v, ok)
	}
	// Setting through a scalar should error.
	d2 := D("a", 5)
	if err := d2.SetPath("a.b", 1); err == nil {
		t.Fatalf("SetPath through scalar should fail")
	}
}

func TestDocDeletePath(t *testing.T) {
	d := D("a", D("b", D("c", 1, "d", 2)))
	if !d.DeletePath("a.b.c") {
		t.Fatalf("DeletePath failed")
	}
	if _, ok := d.GetPath("a.b.c"); ok {
		t.Fatalf("a.b.c still present")
	}
	if _, ok := d.GetPath("a.b.d"); !ok {
		t.Fatalf("a.b.d should survive")
	}
	if d.DeletePath("a.x.y") {
		t.Fatalf("DeletePath on missing intermediate should be false")
	}
}

func TestDocClone(t *testing.T) {
	d := D("n", 1, "sub", D("x", A(1, 2, 3)))
	c := d.Clone()
	if !d.Equal(c) {
		t.Fatalf("clone not equal to original")
	}
	// Mutating the clone must not affect the original.
	sub, _ := c.Get("sub")
	sub.(*Doc).Set("x", "changed")
	orig, _ := d.GetPath("sub.x")
	if _, isArr := orig.([]any); !isArr {
		t.Fatalf("original mutated by clone edit: %v", orig)
	}
}

func TestDocEqualAndUnordered(t *testing.T) {
	a := D("x", 1, "y", D("p", 1, "q", 2))
	b := D("x", 1, "y", D("p", 1, "q", 2))
	c := D("y", D("q", 2, "p", 1), "x", 1)
	if !a.Equal(b) {
		t.Fatalf("a should equal b")
	}
	if a.Equal(c) {
		t.Fatalf("a should not be order-equal to c")
	}
	if !a.EqualUnordered(c) {
		t.Fatalf("a should be unordered-equal to c")
	}
	d := D("x", 1, "y", D("p", 1, "q", 3))
	if a.EqualUnordered(d) {
		t.Fatalf("different values should not be unordered-equal")
	}
}

func TestDocIDAndString(t *testing.T) {
	id := NewObjectID()
	d := D(IDKey, id, "name", "store_sales")
	if got := d.ID(); got != id {
		t.Fatalf("ID() = %v, want %v", got, id)
	}
	s := d.String()
	if s == "" || s[0] != '{' {
		t.Fatalf("String() = %q", s)
	}
}

func TestNilDocAccessors(t *testing.T) {
	var d *Doc
	if d.Len() != 0 {
		t.Fatalf("nil Len != 0")
	}
	if d.Keys() != nil {
		t.Fatalf("nil Keys != nil")
	}
	if _, ok := d.Get("a"); ok {
		t.Fatalf("nil Get should miss")
	}
	if _, ok := d.GetPath("a.b"); ok {
		t.Fatalf("nil GetPath should miss")
	}
	if d.Clone() != nil {
		t.Fatalf("nil Clone should be nil")
	}
}

func TestNormalizeScalars(t *testing.T) {
	cases := []struct {
		in   any
		want any
	}{
		{int(5), int64(5)},
		{int8(5), int64(5)},
		{int16(5), int64(5)},
		{int32(5), int64(5)},
		{uint(5), int64(5)},
		{uint8(5), int64(5)},
		{uint16(5), int64(5)},
		{uint32(5), int64(5)},
		{uint64(5), int64(5)},
		{float32(2.5), float64(2.5)},
		{"s", "s"},
		{true, true},
		{nil, nil},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%v %T) = %v %T, want %v", c.in, c.in, got, got, c.want)
		}
	}
}

func TestNormalizeSlicesAndMaps(t *testing.T) {
	v := Normalize([]int{1, 2, 3})
	arr, ok := v.([]any)
	if !ok || len(arr) != 3 || arr[0] != int64(1) {
		t.Fatalf("Normalize([]int) = %v", v)
	}
	v = Normalize([]string{"a", "b"})
	arr = v.([]any)
	if arr[1] != "b" {
		t.Fatalf("Normalize([]string) = %v", v)
	}
	v = Normalize(map[string]any{"b": 2, "a": 1})
	d, ok := v.(*Doc)
	if !ok {
		t.Fatalf("Normalize(map) = %T", v)
	}
	keys := d.Keys()
	if keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("map keys not sorted: %v", keys)
	}
	v = Normalize([]float64{1.5})
	if v.([]any)[0] != 1.5 {
		t.Fatalf("Normalize([]float64) = %v", v)
	}
	v = Normalize([]*Doc{D("a", 1)})
	if _, ok := v.([]any)[0].(*Doc); !ok {
		t.Fatalf("Normalize([]*Doc) = %v", v)
	}
	v = Normalize([]int64{9})
	if v.([]any)[0] != int64(9) {
		t.Fatalf("Normalize([]int64) = %v", v)
	}
	// Unknown types degrade to strings rather than failing.
	type odd struct{ X int }
	if _, ok := Normalize(odd{1}).(string); !ok {
		t.Fatalf("unknown type should normalize to string")
	}
}

func TestTruthy(t *testing.T) {
	falsy := []any{nil, false, int64(0), float64(0)}
	for _, v := range falsy {
		if Truthy(v) {
			t.Errorf("Truthy(%v) = true, want false", v)
		}
	}
	truthy := []any{true, int64(1), float64(0.1), "", "x", D("a", 1), A(), time.Now()}
	for _, v := range truthy {
		if !Truthy(Normalize(v)) {
			t.Errorf("Truthy(%v) = false, want true", v)
		}
	}
}

// TestNormalizeKeepsCanonicalArrays: an array whose elements are all
// canonical is returned as it is, at every depth, and one with an element to
// convert is copied, sharing the elements before that one and leaving the
// argument unwritten.
func TestNormalizeKeepsCanonicalArrays(t *testing.T) {
	inner := []any{int64(1), "x"}
	canonical := make([]any, 3, 5)
	canonical[0], canonical[1], canonical[2] = D("a", 1), inner, nil
	got := Normalize(canonical).([]any)
	if &got[0] != &canonical[0] || len(got) != 3 || cap(got) != 5 {
		t.Fatalf("a canonical array was copied: %v (cap %d)", got, cap(got))
	}
	if empty := []any{}; Normalize(empty).([]any) == nil {
		t.Fatalf("an empty array normalized to nil")
	}

	sub := D("k", 1)
	mixed := []any{sub, int(2), []any{int32(3)}, inner}
	got = Normalize(mixed).([]any)
	if &got[0] == &mixed[0] {
		t.Fatalf("an array holding an int was returned uncopied")
	}
	if got[0] != sub || got[1] != int64(2) || got[3].([]any)[0] != int64(1) || &got[3].([]any)[0] != &inner[0] {
		t.Fatalf("Normalize(%v) = %v: the elements before and beside the converted ones are not shared", mixed, got)
	}
	if nested := got[2].([]any); nested[0] != int64(3) {
		t.Fatalf("nested int32 not converted: %v", nested)
	}
	if mixed[1] != int(2) || mixed[2].([]any)[0] != int32(3) {
		t.Fatalf("Normalize wrote its argument: %v", mixed)
	}

	// Set stores a canonical array as given: the caller hands it over.
	d := NewDoc(1).Set("arr", canonical)
	if v, _ := d.Get("arr"); &v.([]any)[0] != &canonical[0] {
		t.Fatalf("Set copied a canonical array")
	}
}
