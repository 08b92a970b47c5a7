package aggregate

import (
	"fmt"
	"strings"

	"docstore/internal/bson"
	"docstore/internal/query"
)

func parseStage(name string, arg any) (Stage, error) {
	switch name {
	case "$match":
		spec, ok := arg.(*bson.Doc)
		if !ok {
			return nil, fmt.Errorf("argument must be a document")
		}
		m, err := query.Compile(spec)
		if err != nil {
			return nil, err
		}
		return &matchStage{matcher: m}, nil
	case "$project":
		spec, ok := arg.(*bson.Doc)
		if !ok || spec.Len() == 0 {
			return nil, fmt.Errorf("argument must be a non-empty document")
		}
		return parseProjectStage(spec)
	case "$addFields", "$set":
		spec, ok := arg.(*bson.Doc)
		if !ok || spec.Len() == 0 {
			return nil, fmt.Errorf("argument must be a non-empty document")
		}
		return parseAddFieldsStage(spec)
	case "$group":
		spec, ok := arg.(*bson.Doc)
		if !ok {
			return nil, fmt.Errorf("argument must be a document")
		}
		return parseGroupStage(spec)
	case "$sort":
		spec, ok := arg.(*bson.Doc)
		if !ok {
			return nil, fmt.Errorf("argument must be a document")
		}
		s, err := query.ParseSort(spec)
		if err != nil {
			return nil, err
		}
		return &sortStage{sort: s}, nil
	case "$limit":
		n, ok := bson.AsInt(bson.Normalize(arg))
		if !ok || n < 0 {
			return nil, fmt.Errorf("argument must be a non-negative number")
		}
		return &limitStage{n: int(n)}, nil
	case "$skip":
		n, ok := bson.AsInt(bson.Normalize(arg))
		if !ok || n < 0 {
			return nil, fmt.Errorf("argument must be a non-negative number")
		}
		return &skipStage{n: int(n)}, nil
	case "$unwind":
		switch t := arg.(type) {
		case string:
			if !strings.HasPrefix(t, "$") {
				return nil, fmt.Errorf("path must start with $")
			}
			return &unwindStage{path: bson.NewPath(t[1:])}, nil
		case *bson.Doc:
			pathVal, ok := t.Get("path")
			path, isStr := pathVal.(string)
			if !ok || !isStr || !strings.HasPrefix(path, "$") {
				return nil, fmt.Errorf("path must start with $")
			}
			preserve := bson.Truthy(t.GetOr("preserveNullAndEmptyArrays", false))
			return &unwindStage{path: bson.NewPath(path[1:]), preserveEmpty: preserve}, nil
		default:
			return nil, fmt.Errorf("argument must be a path string or document")
		}
	case "$count":
		field, ok := arg.(string)
		if !ok || field == "" {
			return nil, fmt.Errorf("argument must be a non-empty field name")
		}
		return &countStage{field: field}, nil
	case "$out":
		target, ok := arg.(string)
		if !ok || target == "" {
			return nil, fmt.Errorf("argument must be a collection name")
		}
		return &outStage{target: target}, nil
	case "$lookup":
		spec, ok := arg.(*bson.Doc)
		if !ok {
			return nil, fmt.Errorf("argument must be a document")
		}
		var names [4]string
		for i, key := range [...]string{"from", "localField", "foreignField", "as"} {
			if names[i], _ = spec.GetOr(key, "").(string); names[i] == "" {
				return nil, fmt.Errorf("%s is required", key)
			}
		}
		return &lookupStage{
			from:         names[0],
			localField:   bson.NewPath(names[1]),
			foreignField: bson.NewPath(names[2]),
			as:           bson.NewPath(names[3]),
		}, nil
	default:
		return nil, fmt.Errorf("unknown stage operator %s", name)
	}
}

// ---------------------------------------------------------------------------
// $match

type matchStage struct{ matcher *query.Matcher }

func (s *matchStage) Name() string { return "$match" }
func (s *matchStage) Local() bool  { return true }

func (s *matchStage) Apply(docs []*bson.Doc, _ Env) ([]*bson.Doc, error) {
	out := docs[:0:0]
	for _, d := range docs {
		if s.matcher.Matches(d) {
			out = append(out, d)
		}
	}
	return out, nil
}

func (s *matchStage) startStream() docStream { return matchStream{s} }

type matchStream struct{ s *matchStage }

func (st matchStream) push(d *bson.Doc, out []*bson.Doc) ([]*bson.Doc, bool, error) {
	if st.s.matcher.Matches(d) {
		out = append(out, d)
	}
	return out, true, nil
}

// ---------------------------------------------------------------------------
// $project

// projectStage builds each output row once, in specification order: 1/true
// includes a field, 0/false excludes it (only _id), any other value is an
// expression computing a new field.
type projectStage struct {
	fields []projectField
	// leadID puts the input's own _id first: the default, switched off by
	// _id: 0, by a computed _id — which takes its place in the specification
	// order instead — and by a path below _id.
	leadID bool
}

// projectField is one output field: where it goes, and either the input path
// it is copied from when present or the expression that computes it. The two
// paths of an included field are compiled apart because input and output
// documents are laid out differently.
type projectField struct {
	out  *bson.Path
	from *bson.Path
	expr expr
}

func parseProjectStage(spec *bson.Doc) (Stage, error) {
	s := &projectStage{leadID: true}
	for _, f := range spec.Fields() {
		if strings.HasPrefix(f.Key, bson.IDKey+".") {
			s.leadID = false
		}
		field := projectField{out: bson.NewPath(f.Key)}
		switch v := f.Value.(type) {
		case int64, float64, bool:
			included := bson.Truthy(v)
			if f.Key == bson.IDKey {
				s.leadID = s.leadID && included
				continue
			}
			if !included {
				continue
			}
			field.from = bson.NewPath(f.Key)
		default:
			if f.Key == bson.IDKey {
				s.leadID = false
			}
			var err error
			if field.expr, err = compileExpr(f.Value); err != nil {
				return nil, fmt.Errorf("field %q: %w", f.Key, err)
			}
		}
		s.fields = append(s.fields, field)
	}
	return s, nil
}

func (s *projectStage) Name() string { return "$project" }
func (s *projectStage) Local() bool  { return true }

func (s *projectStage) Apply(docs []*bson.Doc, _ Env) ([]*bson.Doc, error) {
	return mapStream(s.applyDoc).all(docs)
}

func (s *projectStage) applyDoc(d *bson.Doc) (*bson.Doc, error) {
	out := bson.NewDoc(len(s.fields) + 1)
	if s.leadID {
		if id, ok := d.Get(bson.IDKey); ok {
			out.Set(bson.IDKey, id)
		}
	}
	for i := range s.fields {
		f := &s.fields[i]
		var v any
		if f.from != nil {
			var ok bool
			if v, ok = f.from.Get(d); !ok {
				continue
			}
		} else {
			var err error
			if v, err = f.expr(d); err != nil {
				return nil, err
			}
		}
		if err := f.out.Set(out, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *projectStage) startStream() docStream { return mapStream(s.applyDoc) }

// mapStream is a stage that turns each document into one, as a stream and
// over a slice.
type mapStream func(d *bson.Doc) (*bson.Doc, error)

func (apply mapStream) all(docs []*bson.Doc) ([]*bson.Doc, error) {
	out := make([]*bson.Doc, 0, len(docs))
	for _, d := range docs {
		nd, err := apply(d)
		if err != nil {
			return nil, err
		}
		out = append(out, nd)
	}
	return out, nil
}

func (apply mapStream) push(d *bson.Doc, out []*bson.Doc) ([]*bson.Doc, bool, error) {
	nd, err := apply(d)
	if err != nil {
		return out, false, err
	}
	return append(out, nd), true, nil
}

// ---------------------------------------------------------------------------
// $addFields / $set

// addFieldsStage sets computed fields into a copy of each document; every
// expression sees the document as it came in.
type addFieldsStage struct{ fields []projectField }

func parseAddFieldsStage(spec *bson.Doc) (Stage, error) {
	s := &addFieldsStage{fields: make([]projectField, spec.Len())}
	for i, f := range spec.Fields() {
		e, err := compileExpr(f.Value)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", f.Key, err)
		}
		s.fields[i] = projectField{out: bson.NewPath(f.Key), expr: e}
	}
	return s, nil
}

func (s *addFieldsStage) Name() string { return "$addFields" }
func (s *addFieldsStage) Local() bool  { return true }

func (s *addFieldsStage) Apply(docs []*bson.Doc, _ Env) ([]*bson.Doc, error) {
	return mapStream(s.applyDoc).all(docs)
}

func (s *addFieldsStage) applyDoc(d *bson.Doc) (*bson.Doc, error) {
	// A shallow copy: Path.Set copies the nested documents on the path it
	// writes, so d and what it holds are never written.
	nd := d.ShallowClone()
	for i := range s.fields {
		v, err := s.fields[i].expr(d)
		if err != nil {
			return nil, err
		}
		if err := s.fields[i].out.Set(nd, v); err != nil {
			return nil, err
		}
	}
	return nd, nil
}

func (s *addFieldsStage) startStream() docStream { return mapStream(s.applyDoc) }

// ---------------------------------------------------------------------------
// $sort, $limit, $skip

type sortStage struct{ sort query.Sort }

func (s *sortStage) Name() string { return "$sort" }
func (s *sortStage) Local() bool  { return false }

func (s *sortStage) Apply(docs []*bson.Doc, _ Env) ([]*bson.Doc, error) {
	out := append([]*bson.Doc(nil), docs...)
	s.sort.Apply(out)
	return out, nil
}

type limitStage struct{ n int }

func (s *limitStage) Name() string { return "$limit" }
func (s *limitStage) Local() bool  { return false }

func (s *limitStage) Apply(docs []*bson.Doc, _ Env) ([]*bson.Doc, error) {
	if len(docs) > s.n {
		return docs[:s.n], nil
	}
	return docs, nil
}

// $limit streams: it passes documents through and stops the upstream scan
// once n documents have been emitted.
func (s *limitStage) startStream() docStream { return &limitStream{left: s.n} }

type limitStream struct{ left int }

func (st *limitStream) push(d *bson.Doc, out []*bson.Doc) ([]*bson.Doc, bool, error) {
	if st.left <= 0 {
		return out, false, nil
	}
	st.left--
	return append(out, d), st.left > 0, nil
}

type skipStage struct{ n int }

func (s *skipStage) Name() string { return "$skip" }
func (s *skipStage) Local() bool  { return false }

func (s *skipStage) Apply(docs []*bson.Doc, _ Env) ([]*bson.Doc, error) {
	if s.n >= len(docs) {
		return nil, nil
	}
	return docs[s.n:], nil
}

func (s *skipStage) startStream() docStream { return &skipStream{left: s.n} }

type skipStream struct{ left int }

func (st *skipStream) push(d *bson.Doc, out []*bson.Doc) ([]*bson.Doc, bool, error) {
	if st.left > 0 {
		st.left--
		return out, true, nil
	}
	return append(out, d), true, nil
}

// ---------------------------------------------------------------------------
// $unwind

type unwindStage struct {
	path          *bson.Path
	preserveEmpty bool
}

func (s *unwindStage) Name() string { return "$unwind" }
func (s *unwindStage) Local() bool  { return true }

func (s *unwindStage) Apply(docs []*bson.Doc, _ Env) ([]*bson.Doc, error) {
	var out []*bson.Doc
	var err error
	for _, d := range docs {
		out, err = s.unwindDoc(d, out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *unwindStage) unwindDoc(d *bson.Doc, out []*bson.Doc) ([]*bson.Doc, error) {
	v, ok := s.path.Get(d)
	arr, isArr := v.([]any)
	switch {
	case !ok || (isArr && len(arr) == 0) || v == nil:
		if s.preserveEmpty {
			out = append(out, d)
		}
	case isArr:
		for _, e := range arr {
			nd := d.ShallowClone() // as in $addFields
			if err := s.path.Set(nd, e); err != nil {
				return nil, err
			}
			out = append(out, nd)
		}
	default:
		// Non-array values pass through unchanged.
		out = append(out, d)
	}
	return out, nil
}

func (s *unwindStage) startStream() docStream { return unwindStream{s} }

type unwindStream struct{ s *unwindStage }

func (st unwindStream) push(d *bson.Doc, out []*bson.Doc) ([]*bson.Doc, bool, error) {
	out, err := st.s.unwindDoc(d, out)
	return out, err == nil, err
}

// ---------------------------------------------------------------------------
// $count

type countStage struct{ field string }

func (s *countStage) Name() string { return "$count" }
func (s *countStage) Local() bool  { return false }

func (s *countStage) Apply(docs []*bson.Doc, _ Env) ([]*bson.Doc, error) {
	return []*bson.Doc{bson.D(s.field, int64(len(docs)))}, nil
}

// ---------------------------------------------------------------------------
// $out

type outStage struct{ target string }

func (s *outStage) Name() string { return "$out" }
func (s *outStage) Local() bool  { return false }

func (s *outStage) Apply(docs []*bson.Doc, env Env) ([]*bson.Doc, error) {
	if env == nil {
		return nil, fmt.Errorf("no environment to write output collection %q", s.target)
	}
	if err := env.WriteCollection(s.target, docs); err != nil {
		return nil, err
	}
	return docs, nil
}

// ---------------------------------------------------------------------------
// $lookup

type lookupStage struct {
	from         string
	localField   *bson.Path
	foreignField *bson.Path
	as           *bson.Path
}

func (s *lookupStage) Name() string { return "$lookup" }
func (s *lookupStage) Local() bool  { return false }

func (s *lookupStage) Apply(docs []*bson.Doc, env Env) ([]*bson.Doc, error) {
	if env == nil {
		return nil, fmt.Errorf("no environment to read collection %q", s.from)
	}
	foreign, err := env.ReadCollection(s.from)
	if err != nil {
		return nil, err
	}
	// Build a hash join table over the foreign collection.
	var key []byte
	table := make(map[string][]any, len(foreign))
	for _, fd := range foreign {
		v, _ := s.foreignField.Get(fd)
		key = bson.AppendKey(key[:0], v)
		table[string(key)] = append(table[string(key)], fd)
	}
	out := make([]*bson.Doc, 0, len(docs))
	for _, d := range docs {
		v, _ := s.localField.Get(d)
		key = bson.AppendKey(key[:0], v)
		nd := d.ShallowClone() // as in $addFields
		if err := s.as.Set(nd, append([]any{}, table[string(key)]...)); err != nil {
			return nil, err
		}
		out = append(out, nd)
	}
	return out, nil
}
