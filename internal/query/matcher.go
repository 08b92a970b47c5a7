// Package query implements the document query language of the store: filter
// matching, sorts, projections, update operators, and the extraction of index
// bounds used by the query planner.
//
// Filters are ordinary documents in the familiar operator syntax, e.g.
//
//	{"cd_gender": "M",
//	 "i_current_price": {"$gte": 0.99, "$lte": 1.49},
//	 "$or": [{"p_channel_email": "N"}, {"p_channel_event": "N"}]}
//
// A filter is compiled once into a Matcher and evaluated against many
// documents.
package query

import (
	"fmt"
	"regexp"
	"slices"
	"strings"

	"docstore/internal/bson"
)

// Matcher is a compiled filter predicate.
type Matcher struct {
	root matchNode
	src  *bson.Doc
}

// matchNode is a single node of the compiled predicate tree.
type matchNode interface {
	matches(d *bson.Doc) bool
}

// Compile parses a filter document into a Matcher. A nil or empty filter
// matches every document.
func Compile(filter *bson.Doc) (*Matcher, error) {
	node, err := compileFilter(filter)
	if err != nil {
		return nil, err
	}
	return &Matcher{root: node, src: filter}, nil
}

// MustCompile is Compile but panics on error; intended for statically known
// filters such as the benchmark query definitions.
func MustCompile(filter *bson.Doc) *Matcher {
	m, err := Compile(filter)
	if err != nil {
		panic(err)
	}
	return m
}

// Matches reports whether the document satisfies the filter.
func (m *Matcher) Matches(d *bson.Doc) bool {
	if m == nil || m.root == nil {
		return true
	}
	return m.root.matches(d)
}

// Filter returns the source filter document the matcher was compiled from.
func (m *Matcher) Filter() *bson.Doc {
	if m == nil {
		return nil
	}
	return m.src
}

// Residual returns what is left of the predicate once every conjunctive
// clause on the covered fields — a top-level field condition or one reached
// through $and, the clauses FieldConstraints folds into a Constraint — is
// known to hold: the planner names the fields whose clauses its index scans
// answered exactly (Constraint.Exact), and the candidates are checked
// against the rest only. Clauses under $or, $nor, $not and $elemMatch stay
// whole. The result is m itself when no clause goes, and nil — the matcher
// of every document — when none stays; Filter still returns the full filter.
func (m *Matcher) Residual(covered []string) *Matcher {
	if m == nil || m.root == nil || len(covered) == 0 {
		return m
	}
	root := residualNode(m.root, covered)
	switch root {
	case m.root:
		return m
	case nil:
		return nil
	}
	return &Matcher{root: root, src: m.src}
}

// residualNode returns n without the covered field clauses of its
// conjunctive part, n itself when it has none, nil when nothing is left.
func residualNode(n matchNode, covered []string) matchNode {
	switch t := n.(type) {
	case *fieldNode:
		if slices.Contains(covered, t.path.String()) {
			return nil
		}
	case *andNode:
		// kept is built from the first child that changes on, and allocated
		// only once there is something to put in it.
		var kept []matchNode
		changed := false
		for i, child := range t.children {
			r := residualNode(child, covered)
			if r == child && !changed {
				continue
			}
			if !changed {
				changed = true
				if i > 0 {
					kept = append(make([]matchNode, 0, len(t.children)-1), t.children[:i]...)
				}
			}
			if r != nil {
				if kept == nil {
					kept = make([]matchNode, 0, len(t.children)-1)
				}
				kept = append(kept, r)
			}
		}
		switch {
		case !changed:
			return n
		case len(kept) == 0:
			return nil
		case len(kept) == 1:
			return kept[0]
		}
		return &andNode{children: kept}
	}
	return n
}

// String renders the original filter.
func (m *Matcher) String() string {
	if m == nil || m.src == nil {
		return "{}"
	}
	return m.src.String()
}

// ---------------------------------------------------------------------------
// Compilation

type andNode struct{ children []matchNode }

func (n *andNode) matches(d *bson.Doc) bool {
	for _, c := range n.children {
		if !c.matches(d) {
			return false
		}
	}
	return true
}

type orNode struct{ children []matchNode }

func (n *orNode) matches(d *bson.Doc) bool {
	for _, c := range n.children {
		if c.matches(d) {
			return true
		}
	}
	return false
}

type norNode struct{ children []matchNode }

func (n *norNode) matches(d *bson.Doc) bool {
	for _, c := range n.children {
		if c.matches(d) {
			return false
		}
	}
	return true
}

type notNode struct{ child matchNode }

func (n *notNode) matches(d *bson.Doc) bool { return !n.child.matches(d) }

// fieldNode applies a predicate to the values reachable at a dotted path,
// which is compiled once, here, with the filter.
type fieldNode struct {
	path bson.Path
	pred fieldPredicate
}

// fieldValues is what a field path resolved to in one document: nothing, one
// value, or — when the path fanned out through arrays — several.
type fieldValues = bson.Values

type fieldPredicate interface {
	// match is invoked with all values reachable at the path.
	match(vs fieldValues) bool
}

func (n *fieldNode) matches(d *bson.Doc) bool {
	return n.pred.match(n.path.Lookup(d))
}

func compileFilter(filter *bson.Doc) (matchNode, error) {
	if filter.Len() == 0 {
		return &andNode{}, nil
	}
	var children []matchNode
	for _, f := range filter.Fields() {
		node, err := compileClause(f.Key, f.Value)
		if err != nil {
			return nil, err
		}
		children = append(children, node)
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return &andNode{children: children}, nil
}

func compileClause(key string, value any) (matchNode, error) {
	switch key {
	case "$and", "$or", "$nor":
		arr, ok := value.([]any)
		if !ok || len(arr) == 0 {
			return nil, fmt.Errorf("query: %s requires a non-empty array", key)
		}
		var children []matchNode
		for _, e := range arr {
			sub, ok := e.(*bson.Doc)
			if !ok {
				return nil, fmt.Errorf("query: %s elements must be documents, got %T", key, e)
			}
			node, err := compileFilter(sub)
			if err != nil {
				return nil, err
			}
			children = append(children, node)
		}
		switch key {
		case "$and":
			return &andNode{children: children}, nil
		case "$or":
			return &orNode{children: children}, nil
		default:
			return &norNode{children: children}, nil
		}
	case "$not":
		sub, ok := value.(*bson.Doc)
		if !ok {
			return nil, fmt.Errorf("query: $not requires a document")
		}
		node, err := compileFilter(sub)
		if err != nil {
			return nil, err
		}
		return &notNode{child: node}, nil
	case "$expr", "$comment":
		return nil, fmt.Errorf("query: operator %s is not supported", key)
	}
	if strings.HasPrefix(key, "$") {
		return nil, fmt.Errorf("query: unknown top-level operator %s", key)
	}
	pred, err := compileFieldPredicate(value)
	if err != nil {
		return nil, fmt.Errorf("query: field %q: %w", key, err)
	}
	node := &fieldNode{pred: pred}
	node.path.Init(key)
	return node, nil
}

// compileFieldPredicate builds the predicate for one field condition, which
// is either a literal value (implicit $eq) or an operator document.
func compileFieldPredicate(cond any) (fieldPredicate, error) {
	opDoc, ok := cond.(*bson.Doc)
	if ok && isOperatorDoc(opDoc) {
		preds := make([]fieldPredicate, 0, opDoc.Len())
		for _, f := range opDoc.Fields() {
			p, err := compileOperator(f.Key, f.Value)
			if err != nil {
				return nil, err
			}
			preds = append(preds, p)
		}
		if len(preds) == 1 {
			return preds[0], nil
		}
		return allOfPredicate{preds}, nil
	}
	return eqPredicate{val: bson.Normalize(cond)}, nil
}

func isOperatorDoc(d *bson.Doc) bool {
	if d.Len() == 0 {
		return false
	}
	for _, f := range d.Fields() {
		if !strings.HasPrefix(f.Key, "$") {
			return false
		}
	}
	return true
}

func compileOperator(op string, arg any) (fieldPredicate, error) {
	arg = bson.Normalize(arg)
	switch op {
	case "$eq":
		return eqPredicate{val: arg}, nil
	case "$ne":
		return notPredicate{eqPredicate{val: arg}}, nil
	case "$gt", "$gte", "$lt", "$lte":
		return cmpPredicate{op: op, val: arg}, nil
	case "$in":
		arr, ok := arg.([]any)
		if !ok {
			return nil, fmt.Errorf("$in requires an array, got %T", arg)
		}
		return inPredicate{vals: arr}, nil
	case "$nin":
		arr, ok := arg.([]any)
		if !ok {
			return nil, fmt.Errorf("$nin requires an array, got %T", arg)
		}
		return notPredicate{inPredicate{vals: arr}}, nil
	case "$exists":
		return existsPredicate{want: bson.Truthy(arg)}, nil
	case "$type":
		s, ok := arg.(string)
		if !ok {
			return nil, fmt.Errorf("$type requires a type name string")
		}
		return typePredicate{name: s}, nil
	case "$size":
		n, ok := bson.AsInt(arg)
		if !ok {
			return nil, fmt.Errorf("$size requires a number")
		}
		return sizePredicate{n: int(n)}, nil
	case "$mod":
		arr, ok := arg.([]any)
		if !ok || len(arr) != 2 {
			return nil, fmt.Errorf("$mod requires [divisor, remainder]")
		}
		div, ok1 := bson.AsInt(arr[0])
		rem, ok2 := bson.AsInt(arr[1])
		if !ok1 || !ok2 || div == 0 {
			return nil, fmt.Errorf("$mod requires non-zero numeric divisor and remainder")
		}
		return modPredicate{div: div, rem: rem}, nil
	case "$regex":
		s, ok := arg.(string)
		if !ok {
			return nil, fmt.Errorf("$regex requires a string pattern")
		}
		re, err := regexp.Compile(s)
		if err != nil {
			return nil, fmt.Errorf("$regex: %w", err)
		}
		return regexPredicate{re: re}, nil
	case "$all":
		arr, ok := arg.([]any)
		if !ok {
			return nil, fmt.Errorf("$all requires an array")
		}
		return allPredicate{vals: arr}, nil
	case "$elemMatch":
		sub, ok := arg.(*bson.Doc)
		if !ok {
			return nil, fmt.Errorf("$elemMatch requires a document")
		}
		if isOperatorDoc(sub) {
			pred, err := compileFieldPredicate(sub)
			if err != nil {
				return nil, err
			}
			return elemMatchValuePredicate{pred: pred}, nil
		}
		node, err := compileFilter(sub)
		if err != nil {
			return nil, err
		}
		return elemMatchDocPredicate{node: node}, nil
	case "$not":
		sub, err := compileFieldPredicate(arg)
		if err != nil {
			return nil, err
		}
		return notPredicate{sub}, nil
	default:
		return nil, fmt.Errorf("unknown operator %s", op)
	}
}

// ---------------------------------------------------------------------------
// Predicates

type allOfPredicate struct{ preds []fieldPredicate }

func (p allOfPredicate) match(vs fieldValues) bool {
	for _, sub := range p.preds {
		if !sub.match(vs) {
			return false
		}
	}
	return true
}

type notPredicate struct{ inner fieldPredicate }

func (p notPredicate) match(vs fieldValues) bool {
	return !p.inner.match(vs)
}

// eqPredicate implements $eq with array semantics: a value matches when it
// equals the target, or when it is an array containing an element equal to
// the target (or equal to the target as a whole array).
type eqPredicate struct{ val any }

func (p eqPredicate) match(vs fieldValues) bool {
	if vs.Len() == 0 {
		// {field: null} matches documents where the field is missing.
		return p.val == nil
	}
	for i := 0; i < vs.Len(); i++ {
		v := vs.At(i)
		if valueMatchesEq(v, p.val) {
			return true
		}
	}
	return false
}

func valueMatchesEq(v, target any) bool {
	if bson.Compare(v, target) == 0 {
		return true
	}
	if arr, ok := v.([]any); ok {
		for _, e := range arr {
			if bson.Compare(e, target) == 0 {
				return true
			}
		}
	}
	return false
}

type cmpPredicate struct {
	op  string
	val any
}

func (p cmpPredicate) match(vs fieldValues) bool {
	if vs.Len() == 0 {
		return false
	}
	for i := 0; i < vs.Len(); i++ {
		v := vs.At(i)
		if valueMatchesCmp(v, p.op, p.val) {
			return true
		}
	}
	return false
}

func valueMatchesCmp(v any, op string, target any) bool {
	candidates := []any{v}
	if arr, ok := v.([]any); ok {
		candidates = append(candidates, arr...)
	}
	for _, c := range candidates {
		// Range comparisons only apply within the same canonical type,
		// mirroring BSON behaviour where e.g. {$gt: 5} never matches strings.
		if bson.TypeOf(c) != bson.TypeOf(target) {
			continue
		}
		cmp := bson.Compare(c, target)
		switch op {
		case "$gt":
			if cmp > 0 {
				return true
			}
		case "$gte":
			if cmp >= 0 {
				return true
			}
		case "$lt":
			if cmp < 0 {
				return true
			}
		case "$lte":
			if cmp <= 0 {
				return true
			}
		}
	}
	return false
}

type inPredicate struct{ vals []any }

func (p inPredicate) match(vs fieldValues) bool {
	if vs.Len() == 0 {
		for _, t := range p.vals {
			if t == nil {
				return true
			}
		}
		return false
	}
	for i := 0; i < vs.Len(); i++ {
		v := vs.At(i)
		for _, t := range p.vals {
			if valueMatchesEq(v, t) {
				return true
			}
		}
	}
	return false
}

type existsPredicate struct{ want bool }

func (p existsPredicate) match(vs fieldValues) bool { return (vs.Len() > 0) == p.want }

type typePredicate struct{ name string }

func (p typePredicate) match(vs fieldValues) bool {
	if vs.Len() == 0 {
		return false
	}
	for i := 0; i < vs.Len(); i++ {
		v := vs.At(i)
		if bson.TypeOf(v).String() == p.name {
			return true
		}
	}
	return false
}

type sizePredicate struct{ n int }

func (p sizePredicate) match(vs fieldValues) bool {
	if vs.Len() == 0 {
		return false
	}
	for i := 0; i < vs.Len(); i++ {
		v := vs.At(i)
		if arr, ok := v.([]any); ok && len(arr) == p.n {
			return true
		}
	}
	return false
}

type modPredicate struct{ div, rem int64 }

func (p modPredicate) match(vs fieldValues) bool {
	if vs.Len() == 0 {
		return false
	}
	for i := 0; i < vs.Len(); i++ {
		v := vs.At(i)
		candidates := []any{v}
		if arr, ok := v.([]any); ok {
			candidates = arr
		}
		for _, c := range candidates {
			if n, ok := bson.AsInt(c); ok && n%p.div == p.rem {
				return true
			}
		}
	}
	return false
}

type regexPredicate struct{ re *regexp.Regexp }

func (p regexPredicate) match(vs fieldValues) bool {
	if vs.Len() == 0 {
		return false
	}
	for i := 0; i < vs.Len(); i++ {
		v := vs.At(i)
		candidates := []any{v}
		if arr, ok := v.([]any); ok {
			candidates = arr
		}
		for _, c := range candidates {
			if s, ok := c.(string); ok && p.re.MatchString(s) {
				return true
			}
		}
	}
	return false
}

// allPredicate implements $all: every listed value must be matched by the
// field (which is usually an array).
type allPredicate struct{ vals []any }

func (p allPredicate) match(vs fieldValues) bool {
	if vs.Len() == 0 {
		return false
	}
	for _, t := range p.vals {
		found := false
		for i := 0; i < vs.Len(); i++ {
			v := vs.At(i)
			if valueMatchesEq(v, t) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// elemMatchDocPredicate implements $elemMatch with a sub-filter: at least one
// array element (a document) must satisfy the whole sub-filter.
type elemMatchDocPredicate struct{ node matchNode }

func (p elemMatchDocPredicate) match(vs fieldValues) bool {
	if vs.Len() == 0 {
		return false
	}
	for i := 0; i < vs.Len(); i++ {
		v := vs.At(i)
		arr, ok := v.([]any)
		if !ok {
			continue
		}
		for _, e := range arr {
			if doc, ok := e.(*bson.Doc); ok && p.node.matches(doc) {
				return true
			}
		}
	}
	return false
}

// elemMatchValuePredicate implements $elemMatch with operator conditions
// applied to scalar array elements, e.g. {$elemMatch: {$gte: 10, $lt: 20}}.
type elemMatchValuePredicate struct{ pred fieldPredicate }

func (p elemMatchValuePredicate) match(vs fieldValues) bool {
	if vs.Len() == 0 {
		return false
	}
	for i := 0; i < vs.Len(); i++ {
		v := vs.At(i)
		arr, ok := v.([]any)
		if !ok {
			continue
		}
		for _, e := range arr {
			if p.pred.match(bson.OneValue(e)) {
				return true
			}
		}
	}
	return false
}
