package query

import (
	"fmt"
	"sort"

	"docstore/internal/bson"
)

// SortField is one component of a sort specification. ParseSort compiles
// the field's path; a SortField built by hand resolves it on every
// comparison.
type SortField struct {
	Field string
	Desc  bool
	path  *bson.Path
}

func (f *SortField) value(d *bson.Doc) any {
	if f.path == nil {
		v, _ := d.GetPath(f.Field)
		return v
	}
	v, _ := f.path.Get(d)
	return v
}

// Sort is an ordered list of sort fields, e.g. last name ascending then first
// name ascending.
type Sort []SortField

// ParseSort converts a sort specification document such as
// {"c_last_name": 1, "ss_ticket_number": -1} into a Sort.
func ParseSort(spec *bson.Doc) (Sort, error) {
	if spec == nil || spec.Len() == 0 {
		return nil, nil
	}
	s := make(Sort, 0, spec.Len())
	for _, f := range spec.Fields() {
		dir, ok := bson.AsInt(bson.Normalize(f.Value))
		if !ok || (dir != 1 && dir != -1) {
			return nil, fmt.Errorf("query: sort direction for %q must be 1 or -1, got %v", f.Key, f.Value)
		}
		s = append(s, SortField{Field: f.Key, Desc: dir == -1, path: bson.NewPath(f.Key)})
	}
	return s, nil
}

// MustParseSort is ParseSort but panics on error.
func MustParseSort(spec *bson.Doc) Sort {
	s, err := ParseSort(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// Spec renders the sort back into its document form.
func (s Sort) Spec() *bson.Doc {
	d := bson.NewDoc(len(s))
	for _, f := range s {
		dir := int64(1)
		if f.Desc {
			dir = -1
		}
		d.Set(f.Field, dir)
	}
	return d
}

// Compare orders two documents under the sort specification. Missing fields
// sort as null (first ascending, last descending).
func (s Sort) Compare(a, b *bson.Doc) int {
	for i := range s {
		f := &s[i]
		c := bson.Compare(f.value(a), f.value(b))
		if c == 0 {
			continue
		}
		if f.Desc {
			return -c
		}
		return c
	}
	return 0
}

// Less reports whether a sorts before b.
func (s Sort) Less(a, b *bson.Doc) bool { return s.Compare(a, b) < 0 }

// Apply stably sorts docs in place according to the specification. A nil or
// empty sort leaves the slice untouched.
func (s Sort) Apply(docs []*bson.Doc) {
	if len(s) == 0 {
		return
	}
	sort.SliceStable(docs, func(i, j int) bool { return s.Compare(docs[i], docs[j]) < 0 })
}

// Fields returns the field names referenced by the sort, in order.
func (s Sort) Fields() []string {
	out := make([]string, len(s))
	for i, f := range s {
		out[i] = f.Field
	}
	return out
}

// Merge merges k slices that are each already ordered by s into a single
// ordered slice. It is the merge step used by the query router when combining
// sorted results from multiple shards.
func (s Sort) Merge(parts ...[]*bson.Doc) []*bson.Doc {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]*bson.Doc, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			if len(s) == 0 {
				// No ordering: plain concatenation order.
				continue
			}
			if s.Compare(p[idx[i]], parts[best][idx[best]]) < 0 {
				best = i
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}
