package bson

import (
	"fmt"
	"testing"
)

// linearGet and linearLookup are the walks a Path replaces, kept here as the
// plain statement of the two read rules: a search through the fields at every
// level, no remembered position.
func linearGet(d *Doc, keys []string) (any, bool) {
	var cur any = d
	for _, k := range keys {
		doc, ok := cur.(*Doc)
		if !ok {
			return nil, false
		}
		if cur, ok = doc.Get(k); !ok {
			return nil, false
		}
	}
	return cur, true
}

func linearLookup(v any, keys []string) []any {
	if len(keys) == 0 {
		return []any{v}
	}
	switch t := v.(type) {
	case *Doc:
		if val, ok := t.Get(keys[0]); ok {
			return linearLookup(val, keys[1:])
		}
	case []any:
		var out []any
		for _, e := range t {
			out = append(out, linearLookup(e, keys)...)
		}
		return out
	}
	return nil
}

func valuesOf(vs Values) []any {
	var out []any
	for i := 0; i < vs.Len(); i++ {
		out = append(out, vs.At(i))
	}
	return out
}

// TestPathSlotIsOnlyAHint: one Path, many layouts. The remembered position
// is tried first and never trusted: wherever the field sits, and whether or
// not the last document had it there, the answer is the linear walk's.
func TestPathSlotIsOnlyAHint(t *testing.T) {
	reAdded := D("a", 1, "n", D("x", "first", "y", 2), "z", 3)
	reAdded.Delete("n")
	reAdded.Set("n", D("y", 2, "x", "again")) // now last, and x second inside it
	docs := []*Doc{
		D("n", D("x", "front")),
		D("a", 1, "b", 2, "c", 3, "n", D("w", 0, "x", "late")), // n at 3, x at 1
		D("n", D("x", "front again")),                          // the hint now points past the end
		D("a", 1),                                              // missing, and shorter than the hint
		D("n", D("y", 1)),                                      // first segment there, second missing
		D("b", 1, "n", 5),                                      // a scalar in the middle
		D("n", nil),                                            // a null in the middle
		D("n", A(D("x", 1), D("y", 2), D("x", 3), 7)),          // an array in the middle
		D("n", A(A(D("x", "nested")), D("x", A(1, 2)))),        // arrays in arrays, an array at the end
		D("n", A()),
		reAdded,
		NewDoc(0),
		nil,
	}
	for _, name := range []string{"n.x", "n", "a", "n.x.deeper", "missing.x"} {
		p := NewPath(name)
		if p.String() != name {
			t.Fatalf("String() = %q, want %q", p.String(), name)
		}
		keys := NewPath(name).keys()
		// Twice forward and once backward, so every document is looked at
		// with the hint left by each of its neighbours.
		order := append(append(append([]*Doc{}, docs...), docs...), reversed(docs)...)
		for i, d := range order {
			wantV, wantOK := linearGet(d, keys)
			gotV, gotOK := p.Get(d)
			if gotOK != wantOK || Compare(gotV, wantV) != 0 {
				t.Fatalf("%s: Get(%v) at step %d = %v, %v; linear walk %v, %v", name, d, i, gotV, gotOK, wantV, wantOK)
			}
			want := linearLookup(d, keys)
			if got := valuesOf(p.Lookup(d)); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: Lookup(%v) at step %d = %v; linear walk %v", name, d, i, got, want)
			}
			// The one-shot wrappers are the same walk.
			if v, ok := d.GetPath(name); ok != wantOK || Compare(v, wantV) != 0 {
				t.Fatalf("%s: GetPath(%v) = %v, %v; want %v, %v", name, d, v, ok, wantV, wantOK)
			}
			if got := d.LookupPathAll(name); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: LookupPathAll(%v) = %v; want %v", name, d, got, want)
			}
		}
	}
}

func (p *Path) keys() []string {
	keys := []string{p.first.key}
	for i := range p.rest {
		keys = append(keys, p.rest[i].key)
	}
	return keys
}

func reversed(docs []*Doc) []*Doc {
	out := make([]*Doc, len(docs))
	for i, d := range docs {
		out[len(docs)-1-i] = d
	}
	return out
}

// TestPathGetAndLookupDifferOnlyAtArrays: the two read rules agree on every
// document whose path crosses no array, and where it does, Get sees nothing
// and Lookup sees the elements — exactly as GetPath and LookupPathAll do.
func TestPathGetAndLookupDifferOnlyAtArrays(t *testing.T) {
	p := NewPath("books.pages")
	plain := D("books", D("pages", 216))
	if v, ok := p.Get(plain); !ok || v != int64(216) {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if vs := p.Lookup(plain); vs.Len() != 1 || vs.At(0) != int64(216) {
		t.Fatalf("Lookup = %v", valuesOf(vs))
	}
	through := D("books", A(D("pages", 216), D("title", "untitled"), D("pages", 418)))
	if v, ok := p.Get(through); ok || v != nil {
		t.Fatalf("Get through an array = %v, %v; want missing", v, ok)
	}
	if v, ok := through.GetPath("books.pages"); ok || v != nil {
		t.Fatalf("GetPath through an array = %v, %v; want missing", v, ok)
	}
	if got := valuesOf(p.Lookup(through)); len(got) != 2 || got[0] != int64(216) || got[1] != int64(418) {
		t.Fatalf("Lookup through an array = %v", got)
	}
	if got := through.LookupPathAll("books.pages"); len(got) != 2 || got[0] != int64(216) || got[1] != int64(418) {
		t.Fatalf("LookupPathAll through an array = %v", got)
	}
	// An array at the end of the path is one value to both.
	last := NewPath("books")
	if v, ok := last.Get(through); !ok || len(v.([]any)) != 3 {
		t.Fatalf("Get of an array = %v, %v", v, ok)
	}
	if vs := last.Lookup(through); vs.Len() != 1 || len(vs.At(0).([]any)) != 3 {
		t.Fatalf("Lookup of an array = %v", valuesOf(vs))
	}
}

func TestPathSetAndDelete(t *testing.T) {
	p := NewPath("a.b.c")
	d := D("x", 1)
	if err := p.Set(d, 5); err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != `{x: 1, a: {b: {c: 5}}}` {
		t.Fatalf("after Set: %s", got)
	}
	if err := p.Set(d, "again"); err != nil || d.String() != `{x: 1, a: {b: {c: "again"}}}` {
		t.Fatalf("Set over an existing value: %v, %s", err, d)
	}
	// The same path over a document laid out differently.
	other := D("a", D("k", 0, "b", D("j", 0, "c", 1)))
	if err := p.Set(other, 2); err != nil || other.String() != `{a: {k: 0, b: {j: 0, c: 2}}}` {
		t.Fatalf("Set keeps positions: %v, %s", err, other)
	}
	if err := p.Set(D("a", D("b", 7)), 1); err == nil {
		t.Fatal("Set through a scalar should fail")
	}
	if err := NewPath("a.b").Set(D("a", nil), 1); err == nil {
		t.Fatal("Set through a null should fail")
	}
	if !p.Delete(d) || d.String() != `{x: 1, a: {b: {}}}` {
		t.Fatalf("after Delete: %s", d)
	}
	if p.Delete(d) || p.Delete(D("a", 5)) || p.Delete(NewDoc(0)) {
		t.Fatal("Delete of a missing path should report false")
	}
	top := NewPath("x")
	if !top.Delete(d) || d.Has("x") {
		t.Fatalf("top-level Delete: %s", d)
	}
}

// TestPathReadAllocates: reading through a compiled path allocates nothing
// unless an array is crossed. (On the parent commit GetPath split the path —
// 1 allocation — and LookupPathAll built a one-element slice besides — 2.)
func TestPathReadAllocates(t *testing.T) {
	p := NewPath("ss_store_sk.s_city")
	d := D("ss_ticket_number", 1, "ss_store_sk", D("s_store_sk", 1, "s_city", "Midway"))
	var v any
	var vs Values
	if n := testing.AllocsPerRun(100, func() { v, _ = p.Get(d) }); n != 0 || v != "Midway" {
		t.Fatalf("Path.Get: %v allocations, value %v; want 0", n, v)
	}
	if n := testing.AllocsPerRun(100, func() { vs = p.Lookup(d) }); n != 0 || vs.At(0) != "Midway" {
		t.Fatalf("Path.Lookup: %v allocations, value %v; want 0", n, vs.At(0))
	}
}
