package query

import (
	"fmt"

	"docstore/internal/bson"
)

// Projection selects which fields of a matched document are returned.
// It is either an inclusion projection ({"a": 1, "b.c": 1}) or an exclusion
// projection ({"a": 0}); _id is included by default and may be excluded
// explicitly in either mode.
type Projection struct {
	include   bool
	fields    []*bson.Path // in specification order
	includeID bool
	empty     bool
}

// ParseProjection compiles a projection specification document. A nil or
// empty specification returns a projection that passes documents through
// unchanged.
func ParseProjection(spec *bson.Doc) (*Projection, error) {
	if spec == nil || spec.Len() == 0 {
		return &Projection{empty: true, includeID: true}, nil
	}
	p := &Projection{includeID: true}
	seen := make(map[string]bool, spec.Len())
	mode := 0 // 0 unknown, 1 include, -1 exclude
	for _, f := range spec.Fields() {
		v := bson.Normalize(f.Value)
		n, ok := bson.AsInt(v)
		var included bool
		switch {
		case ok && n == 1:
			included = true
		case ok && n == 0:
			included = false
		case v == true:
			included = true
		case v == false:
			included = false
		default:
			return nil, fmt.Errorf("query: projection value for %q must be 0 or 1, got %v", f.Key, f.Value)
		}
		if f.Key == bson.IDKey {
			p.includeID = included
			continue
		}
		want := -1
		if included {
			want = 1
		}
		if mode == 0 {
			mode = want
		} else if mode != want {
			return nil, fmt.Errorf("query: cannot mix inclusion and exclusion in a projection")
		}
		if !seen[f.Key] {
			seen[f.Key] = true
			p.fields = append(p.fields, bson.NewPath(f.Key))
		}
	}
	if mode == 0 {
		// Only _id was specified.
		mode = -1
		p.fields = nil
	}
	p.include = mode == 1
	return p, nil
}

// MustParseProjection is ParseProjection but panics on error.
func MustParseProjection(spec *bson.Doc) *Projection {
	p, err := ParseProjection(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Apply returns a new document containing only the projected fields of d.
func (p *Projection) Apply(d *bson.Doc) *bson.Doc {
	if p == nil || p.empty {
		return d
	}
	if p.include {
		out := bson.NewDoc(len(p.fields) + 1)
		if p.includeID {
			if id, ok := d.Get(bson.IDKey); ok {
				out.Set(bson.IDKey, id)
			}
		}
		for _, path := range p.fields {
			if v, ok := path.Get(d); ok {
				_ = path.Set(out, v) // an error means a shorter path already put a scalar there
			}
		}
		return out
	}
	// Exclusion projection: a shallow copy, then remove. Path.Delete copies
	// the nested documents on the path it removes from, so d is not written.
	out := d.ShallowClone()
	for _, path := range p.fields {
		path.Delete(out)
	}
	if !p.includeID {
		out.Delete(bson.IDKey)
	}
	return out
}

// IsInclusion reports whether the projection is an inclusion projection.
func (p *Projection) IsInclusion() bool { return p != nil && !p.empty && p.include }

// Fields returns the dotted paths referenced by the projection, in
// specification order.
func (p *Projection) Fields() []string {
	if p == nil {
		return nil
	}
	out := make([]string, len(p.fields))
	for i, path := range p.fields {
		out[i] = path.String()
	}
	return out
}
