package bson

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Path is a dotted field name ("ss_store_sk.s_city") compiled once and
// resolved against many documents: what a filter, a sort, an index key
// specification and an aggregation expression hold instead of the string.
// The name is split at its dots here and nowhere else.
//
// Each segment remembers the position it last found its field at and tries
// that position first. Documents of one collection share a layout, so the
// usual lookup is one key comparison instead of a search through the field
// array. The remembered position is only a hint: it is checked against the
// key before it is believed, a wrong or stale one costs the search it would
// have saved, and so nothing has to invalidate it when documents change. It
// is atomic, so one Path may be used from many goroutines.
//
// There are two ways to read. Get is the rule aggregation expressions, sorts
// and updates use: only documents are traversed, and an array in the middle
// of the path makes the path missing. Lookup is the rule filters and index
// keys use: an array in the middle fans out to its elements.
type Path struct {
	name  string
	first segment
	rest  []segment // empty for a top-level field
}

type segment struct {
	key  string
	slot atomic.Int32
}

// NewPath compiles a dotted field name.
func NewPath(name string) *Path {
	p := new(Path)
	p.Init(name)
	return p
}

// Init compiles name into p in place, for a Path that is a field of the
// value that uses it. A Path must not be copied afterwards.
func (p *Path) Init(name string) {
	p.name = name
	var dotted bool
	if p.first.key, name, dotted = strings.Cut(name, "."); !dotted {
		return
	}
	p.rest = make([]segment, strings.Count(name, ".")+1)
	for i := range p.rest {
		p.rest[i].key, name, _ = strings.Cut(name, ".")
	}
}

// String returns the dotted name the path was compiled from.
func (p *Path) String() string { return p.name }

// index returns the position of the segment's field in d, or -1.
func (s *segment) index(d *Doc) int {
	if d == nil {
		return -1
	}
	if i := int(s.slot.Load()); i < len(d.fields) && d.fields[i].Key == s.key {
		return i
	}
	i := d.index(s.key)
	if i >= 0 {
		s.slot.Store(int32(i))
	}
	return i
}

func (s *segment) get(d *Doc) (any, bool) {
	if i := s.index(d); i >= 0 {
		return d.fields[i].Value, true
	}
	return nil, false
}

// Get returns the value at the path and whether it exists. Intermediate
// values must be documents; anything else, an array included, makes the path
// missing.
func (p *Path) Get(d *Doc) (any, bool) {
	v, ok := p.first.get(d)
	for i := 0; ok && i < len(p.rest); i++ {
		sub, isDoc := v.(*Doc)
		if !isDoc {
			return nil, false
		}
		v, ok = p.rest[i].get(sub)
	}
	return v, ok
}

// Values is what Lookup found: nothing, one value, or — when the path crossed
// an array — one value for each element that resolves. The single value
// travels inline, so a lookup that crosses no array allocates nothing. The
// struct is kept to four words: that is the size up to which the compiler
// passes a struct from Lookup to a predicate in registers, and a filter over
// a top-level field is nothing but that hand-over.
type Values struct {
	v      any // the value, or the []any of values when fanned
	n      int
	fanned bool // the path crossed an array
}

// OneValue is the Values holding just v.
func OneValue(v any) Values { return Values{v: v, n: 1} }

// ManyValues is the Values holding the elements of vs.
func ManyValues(vs []any) Values { return Values{v: vs, n: len(vs), fanned: true} }

// Len returns the number of values; zero means the path resolved to nothing.
func (vs Values) Len() int { return vs.n }

// At returns the i-th value.
func (vs Values) At(i int) any {
	if vs.fanned {
		return vs.v.([]any)[i]
	}
	return vs.v
}

// Lookup returns every value reachable at the path, descending into the
// elements of arrays met along the way: a filter on "books.pages" sees the
// pages of every element of the "books" array. An array at the end of the
// path is one value, itself.
func (p *Path) Lookup(d *Doc) Values {
	v, ok := p.first.get(d)
	if !ok {
		return Values{}
	}
	for i := range p.rest {
		switch t := v.(type) {
		case *Doc:
			if v, ok = p.rest[i].get(t); !ok {
				return Values{}
			}
		case []any:
			return ManyValues(lookupAll(nil, t, p.rest[i:]))
		default:
			return Values{}
		}
	}
	return OneValue(v)
}

// lookupAll appends to out what the segments resolve to under v.
func lookupAll(out []any, v any, segs []segment) []any {
	if len(segs) == 0 {
		return append(out, v)
	}
	switch t := v.(type) {
	case *Doc:
		if val, ok := segs[0].get(t); ok {
			out = lookupAll(out, val, segs[1:])
		}
	case []any:
		for _, e := range t {
			out = lookupAll(out, e, segs)
		}
	}
	return out
}

// parent walks to the document that holds, or would hold, the path's last
// segment, which it returns with it. With create set, missing intermediate
// documents are added; an intermediate value that is not a document is an
// error then, and a nil parent without one otherwise.
func (p *Path) parent(d *Doc, create bool) (*Doc, *segment, error) {
	cur, seg := d, &p.first
	for i := range p.rest {
		next, ok := seg.get(cur)
		sub, isDoc := next.(*Doc)
		switch {
		case isDoc:
		case !create:
			return nil, nil, nil
		case ok:
			return nil, nil, fmt.Errorf("bson: cannot create field %q in element of type %T", p.rest[i].key, next)
		default:
			sub = NewDoc(1)
			cur.fields = append(cur.fields, Field{Key: seg.key, Value: sub})
		}
		cur, seg = sub, &p.rest[i]
	}
	return cur, seg, nil
}

// Set stores value at the path, creating intermediate documents as needed
// and keeping an existing field's position. It returns an error when an
// intermediate value exists but is not a document.
func (p *Path) Set(d *Doc, value any) error {
	parent, seg, err := p.parent(d, true)
	if err != nil {
		return err
	}
	value = Normalize(value)
	if i := seg.index(parent); i >= 0 {
		parent.fields[i].Value = value
	} else {
		parent.fields = append(parent.fields, Field{Key: seg.key, Value: value})
	}
	return nil
}

// Delete removes the value at the path and reports whether anything was
// removed.
func (p *Path) Delete(d *Doc) bool {
	parent, seg, _ := p.parent(d, false)
	if parent == nil {
		return false
	}
	i := seg.index(parent)
	if i < 0 {
		return false
	}
	parent.fields = append(parent.fields[:i], parent.fields[i+1:]...)
	return true
}
