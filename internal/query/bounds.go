package query

import (
	"strings"

	"docstore/internal/bson"
)

// Constraint captures what a filter says about one field under top-level AND
// semantics. It is what the query planner uses to decide whether an index can
// serve a filter, and what the query router uses to decide whether a query
// can be targeted to specific shards (the thesis' targeted-vs-broadcast
// distinction of §4.3).
type Constraint struct {
	Field string
	// Points holds the exact values the field may take when the filter pins
	// it down with $eq or $in. Nil when the field is only range-constrained;
	// empty and not nil when the point conditions admit no value at all (an
	// empty $in, two different equalities).
	Points []any
	// Range bounds; meaningful when HasMin/HasMax are set.
	Min, Max                   any
	MinInclusive, MaxInclusive bool
	HasMin, HasMax             bool
	// inexact is set once the filter says something about the field that
	// Points and the bounds do not hold to the letter; see Exact.
	inexact bool
	// pointConds counts the $eq/$in conditions folded into Points.
	pointConds int
}

// IsPoint reports whether the constraint restricts the field to a finite,
// non-empty set of values.
func (c *Constraint) IsPoint() bool { return len(c.Points) > 0 }

// IsRange reports whether the constraint carries at least one range bound.
func (c *Constraint) IsRange() bool { return c.HasMin || c.HasMax }

// Intersected reports whether Points is the intersection of several point
// conditions. That is what they say of a field holding one value; an array
// may satisfy each condition with a different element ({a: {$in: [1, 2]}} and
// {a: {$in: [3, 4]}} both hold for a: [1, 4]), so a multikey index must not
// be read by the intersection.
func (c *Constraint) Intersected() bool { return c.pointConds > 1 }

// IsEmpty reports whether no single value satisfies the constraint: its
// point conditions intersect to nothing, or its lower bound lies above its
// upper one. A document whose field holds one value cannot match the filter
// then, so an index that stores one key per document answers it with zero
// candidates. An array can still match ({a: 1} and {a: 2} both hold for
// a: [1, 2]), which is why a multikey index must not draw that conclusion.
func (c *Constraint) IsEmpty() bool {
	if c.Points != nil && len(c.Points) == 0 {
		return true
	}
	if c.HasMin && c.HasMax {
		cmp := bson.Compare(c.Min, c.Max)
		return cmp > 0 || cmp == 0 && !(c.MinInclusive && c.MaxInclusive)
	}
	return false
}

// Exact reports whether the constraint is the whole of what the filter's
// conjunctive clauses say about the field, with the meaning an index scan
// gives it: a document whose field holds one value (or none) satisfies those
// clauses if and only if that value lies in Points, or between the bounds.
// Then a scan of a non-multikey, non-hashed index led by the field answers
// the clauses and Matcher.Residual may leave them out. It holds for
//
//   - $eq and $in over non-null scalars, alone or intersected;
//   - a range bounded on both sides by scalars of one canonical type.
//
// and for nothing else. The matcher brackets {$gte: 5} to numbers while an
// index range open above runs on into strings, so a one-sided range is not
// exact, nor are bounds of two types; null also matches a missing field and
// an array or document operand compares whole values, so those operands are
// not; a point set beside a bound, and any operator that is not folded into
// the constraint ($ne, $exists, $nin, $regex ...) on any clause naming the
// field, leave the clauses to the matcher as well.
func (c *Constraint) Exact() bool {
	if c.inexact {
		return false
	}
	if c.Points != nil {
		return !c.IsRange()
	}
	return c.HasMin && c.HasMax && bson.TypeOf(c.Min) == bson.TypeOf(c.Max)
}

// exactOperand reports whether an index key equal to v means what the
// matcher means by a value equal to v: a scalar that is not null.
func exactOperand(v any) bool {
	switch bson.TypeOf(v) {
	case bson.TypeNull, bson.TypeArray, bson.TypeDocument:
		return false
	}
	return true
}

// FieldConstraints extracts the per-field constraints implied by a filter.
// Only conjunctive structure is analysed: top-level field conditions and
// $and clauses contribute; $or, $nor and $not clauses are conservatively
// ignored (they never make a plan incorrect, only less selective).
func FieldConstraints(filter *bson.Doc) map[string]*Constraint {
	out := make(map[string]*Constraint)
	collectConstraints(filter, out)
	return out
}

func collectConstraints(filter *bson.Doc, out map[string]*Constraint) {
	if filter == nil {
		return
	}
	for _, f := range filter.Fields() {
		switch f.Key {
		case "$and":
			if arr, ok := f.Value.([]any); ok {
				for _, e := range arr {
					if sub, ok := e.(*bson.Doc); ok {
						collectConstraints(sub, out)
					}
				}
			}
		case "$or", "$nor", "$not":
			// Disjunctive clauses do not constrain a single field for planning.
			continue
		default:
			if strings.HasPrefix(f.Key, "$") {
				continue
			}
			collectFieldConstraint(f.Key, f.Value, out)
		}
	}
}

func collectFieldConstraint(field string, cond any, out map[string]*Constraint) {
	c := out[field]
	if c == nil {
		c = &Constraint{Field: field}
		out[field] = c
	}
	opDoc, ok := cond.(*bson.Doc)
	if !ok || !isOperatorDoc(opDoc) {
		c.intersectPoints([]any{bson.Normalize(cond)})
		return
	}
	for _, op := range opDoc.Fields() {
		v := bson.Normalize(op.Value)
		switch op.Key {
		case "$eq":
			c.intersectPoints([]any{v})
		case "$in":
			if arr, ok := v.([]any); ok {
				c.intersectPoints(arr)
			} else {
				c.inexact = true
			}
		case "$gt":
			c.setMin(v, false)
		case "$gte":
			c.setMin(v, true)
		case "$lt":
			c.setMax(v, false)
		case "$lte":
			c.setMax(v, true)
		default:
			c.inexact = true
		}
	}
}

// intersectPoints narrows the point set: the first point condition seeds the
// set, later ones intersect with it (AND semantics).
func (c *Constraint) intersectPoints(vs []any) {
	for _, v := range vs {
		if !exactOperand(v) {
			c.inexact = true
		}
	}
	c.pointConds++
	if c.Points == nil {
		c.Points = append([]any{}, vs...)
		return
	}
	var kept []any
	for _, existing := range c.Points {
		for _, v := range vs {
			if bson.Compare(existing, v) == 0 {
				kept = append(kept, existing)
				break
			}
		}
	}
	if kept == nil {
		kept = []any{}
	}
	c.Points = kept
}

// setMin and setMax keep the tighter of two bounds (of two equal ones, the
// exclusive). Two bounds of different types on one side are each a type
// bracket of their own to the matcher, and only one of them survives here.
func (c *Constraint) setMin(v any, inclusive bool) {
	if !exactOperand(v) || c.HasMin && bson.TypeOf(v) != bson.TypeOf(c.Min) {
		c.inexact = true
	}
	if cmp := bson.Compare(v, c.Min); !c.HasMin || cmp > 0 || cmp == 0 && !inclusive {
		c.Min, c.MinInclusive, c.HasMin = v, inclusive, true
	}
}

func (c *Constraint) setMax(v any, inclusive bool) {
	if !exactOperand(v) || c.HasMax && bson.TypeOf(v) != bson.TypeOf(c.Max) {
		c.inexact = true
	}
	if cmp := bson.Compare(v, c.Max); !c.HasMax || cmp < 0 || cmp == 0 && !inclusive {
		c.Max, c.MaxInclusive, c.HasMax = v, inclusive, true
	}
}

// ConstraintFor returns the constraint for a single field, or nil.
func ConstraintFor(filter *bson.Doc, field string) *Constraint {
	return FieldConstraints(filter)[field]
}
