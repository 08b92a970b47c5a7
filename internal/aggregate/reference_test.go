package aggregate

import (
	"fmt"
	"math"
	"math/big"
	"strings"

	"docstore/internal/bson"
)

// The reference: what an expression, a $group, a $project and an $addFields
// mean, written as the interpreter that used to run them — it walks the
// expression document for every input document, resolves paths with the
// one-shot bson.GetPath/SetPath, checks argument counts when a document
// reaches the operator, and finds a group's bucket by comparing keys. It is
// the specification the compiled stages are tested against
// (TestCompiledEquivalence), so it is written to be read, not to be fast.

// Evaluate computes an aggregation expression against a document.
func Evaluate(expr any, doc *bson.Doc) (any, error) {
	switch t := expr.(type) {
	case string:
		if strings.HasPrefix(t, "$") {
			v, _ := doc.GetPath(strings.TrimPrefix(t, "$"))
			return v, nil
		}
		return t, nil
	case *bson.Doc:
		if op, arg, ok := singleOperator(t); ok {
			return evalOperator(op, arg, doc)
		}
		out := bson.NewDoc(t.Len())
		for _, f := range t.Fields() {
			v, err := Evaluate(f.Value, doc)
			if err != nil {
				return nil, err
			}
			out.Set(f.Key, v)
		}
		return out, nil
	case []any:
		return evalList(t, doc)
	default:
		return bson.Normalize(expr), nil
	}
}

func evalList(exprs []any, doc *bson.Doc) ([]any, error) {
	out := make([]any, len(exprs))
	for i, e := range exprs {
		v, err := Evaluate(e, doc)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// evalArgs evaluates an operator argument that is either a single expression
// or an array of expressions, and checks how many there are (max < 0: any
// number).
func evalArgs(op string, arg any, doc *bson.Doc, min, max int) ([]any, error) {
	list, ok := arg.([]any)
	if !ok {
		list = []any{arg}
	}
	if len(list) < min || (max >= 0 && len(list) > max) {
		return nil, fmt.Errorf("aggregate: %s takes %d arguments, got %d", op, min, len(list))
	}
	return evalList(list, doc)
}

func evalOperator(op string, arg any, doc *bson.Doc) (any, error) {
	switch op {
	case "$literal":
		return bson.Normalize(arg), nil
	case "$add", "$multiply":
		args, err := evalArgs(op, arg, doc, 0, -1)
		if err != nil {
			return nil, err
		}
		var acc any = int64(0)
		if op == "$multiply" {
			acc = int64(1)
		}
		for _, a := range args {
			if a == nil {
				return nil, nil
			}
			if !bson.IsNumeric(a) {
				return nil, fmt.Errorf("aggregate: %s argument %v is not numeric", op, a)
			}
			acc = refArith(op, acc, a)
		}
		return acc, nil
	case "$subtract", "$divide", "$mod", "$pow":
		args, err := evalArgs(op, arg, doc, 2, 2)
		if err != nil {
			return nil, err
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		if !bson.IsNumeric(args[0]) || !bson.IsNumeric(args[1]) {
			return nil, fmt.Errorf("aggregate: %s arguments must be numeric, got %v and %v", op, args[0], args[1])
		}
		if f, _ := bson.AsFloat(args[1]); f == 0 && (op == "$divide" || op == "$mod") {
			return nil, fmt.Errorf("aggregate: %s by zero", op)
		}
		return refArith(op, args[0], args[1]), nil
	case "$abs", "$floor", "$ceil", "$trunc", "$sqrt":
		args, err := evalArgs(op, arg, doc, 1, 1)
		if err != nil {
			return nil, err
		}
		if args[0] == nil {
			return nil, nil
		}
		f, ok := bson.AsFloat(args[0])
		if !ok {
			return nil, fmt.Errorf("aggregate: %s argument %v is not numeric", op, args[0])
		}
		n, isInt := args[0].(int64)
		switch {
		case op == "$sqrt" && f < 0:
			return nil, fmt.Errorf("aggregate: $sqrt of negative value")
		case op == "$sqrt":
			return math.Sqrt(f), nil
		case op == "$abs" && isInt:
			return refInt(new(big.Int).Abs(big.NewInt(n)), math.Abs(f)), nil
		case op == "$abs":
			return math.Abs(f), nil
		case isInt:
			return n, nil
		case op == "$floor":
			return int64(math.Floor(f)), nil
		case op == "$ceil":
			return int64(math.Ceil(f)), nil
		default:
			return int64(math.Trunc(f)), nil
		}
	case "$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$cmp":
		args, err := evalArgs(op, arg, doc, 2, 2)
		if err != nil {
			return nil, err
		}
		cmp := bson.Compare(args[0], args[1])
		switch op {
		case "$cmp":
			return int64(cmp), nil
		case "$eq":
			return cmp == 0, nil
		case "$ne":
			return cmp != 0, nil
		case "$gt":
			return cmp > 0, nil
		case "$gte":
			return cmp >= 0, nil
		case "$lt":
			return cmp < 0, nil
		default:
			return cmp <= 0, nil
		}
	case "$and", "$or":
		// The arguments after the one that decides the result are not
		// evaluated: they may be guarded by it.
		list, ok := arg.([]any)
		if !ok {
			list = []any{arg}
		}
		for _, e := range list {
			v, err := Evaluate(e, doc)
			if err != nil {
				return nil, err
			}
			if bson.Truthy(v) != (op == "$and") {
				return op == "$or", nil
			}
		}
		return op == "$and", nil
	case "$not":
		args, err := evalArgs(op, arg, doc, 1, 1)
		if err != nil {
			return nil, err
		}
		return !bson.Truthy(args[0]), nil
	case "$cond":
		return evalCond(arg, doc)
	case "$ifNull":
		args, err := evalArgs(op, arg, doc, 2, 2)
		if err != nil {
			return nil, err
		}
		if args[0] == nil {
			return args[1], nil
		}
		return args[0], nil
	case "$concat":
		args, err := evalArgs(op, arg, doc, 0, -1)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		for _, a := range args {
			if a == nil {
				return nil, nil
			}
			s, ok := a.(string)
			if !ok {
				return nil, fmt.Errorf("aggregate: $concat argument %v is not a string", a)
			}
			b.WriteString(s)
		}
		return b.String(), nil
	case "$toLower", "$toUpper":
		v, err := Evaluate(arg, doc)
		if err != nil {
			return nil, err
		}
		s, _ := v.(string)
		if op == "$toLower" {
			return strings.ToLower(s), nil
		}
		return strings.ToUpper(s), nil
	case "$size":
		v, err := Evaluate(arg, doc)
		if err != nil {
			return nil, err
		}
		arr, ok := v.([]any)
		if !ok {
			return nil, fmt.Errorf("aggregate: $size requires an array, got %T", v)
		}
		return int64(len(arr)), nil
	case "$in":
		args, err := evalArgs(op, arg, doc, 2, 2)
		if err != nil {
			return nil, err
		}
		arr, ok := args[1].([]any)
		if !ok {
			return nil, fmt.Errorf("aggregate: $in second argument must be an array")
		}
		for _, e := range arr {
			if bson.Compare(e, args[0]) == 0 {
				return true, nil
			}
		}
		return false, nil
	default:
		return nil, fmt.Errorf("aggregate: unknown expression operator %s", op)
	}
}

// refArith applies a two-operand arithmetic operator to two numbers. Two
// int64 operands give the exact integer when it fits an int64 and the float64
// result when it does not; $divide and $pow are always float64.
func refArith(op string, a, b any) any {
	fa, _ := bson.AsFloat(a)
	fb, _ := bson.AsFloat(b)
	ia, aInt := a.(int64)
	ib, bInt := b.(int64)
	ints := aInt && bInt
	x, y := big.NewInt(ia), big.NewInt(ib)
	switch op {
	case "$add":
		if ints {
			return refInt(x.Add(x, y), fa+fb)
		}
		return fa + fb
	case "$multiply":
		if ints {
			return refInt(x.Mul(x, y), fa*fb)
		}
		return fa * fb
	case "$subtract":
		if ints {
			return refInt(x.Sub(x, y), fa-fb)
		}
		return fa - fb
	case "$mod":
		if ints {
			return x.Rem(x, y).Int64()
		}
		return math.Mod(fa, fb)
	case "$divide":
		return fa / fb
	default:
		return math.Pow(fa, fb)
	}
}

// refInt is the exact integer n when an int64 holds it, and otherwise the
// float64 the caller computed from the operands.
func refInt(n *big.Int, overflowed float64) any {
	if n.IsInt64() {
		return n.Int64()
	}
	return overflowed
}

// evalCond supports both the array form [if, then, else] and the document
// form {if: ..., then: ..., else: ...}.
func evalCond(arg any, doc *bson.Doc) (any, error) {
	var ifExpr, thenExpr, elseExpr any
	switch t := arg.(type) {
	case []any:
		if len(t) != 3 {
			return nil, fmt.Errorf("aggregate: $cond array form takes [if, then, else]")
		}
		ifExpr, thenExpr, elseExpr = t[0], t[1], t[2]
	case *bson.Doc:
		var ok1, ok2, ok3 bool
		ifExpr, ok1 = t.Get("if")
		thenExpr, ok2 = t.Get("then")
		elseExpr, ok3 = t.Get("else")
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("aggregate: $cond document form requires if/then/else")
		}
	default:
		return nil, fmt.Errorf("aggregate: $cond requires an array or document argument")
	}
	condVal, err := Evaluate(ifExpr, doc)
	if err != nil {
		return nil, err
	}
	if bson.Truthy(condVal) {
		return Evaluate(thenExpr, doc)
	}
	return Evaluate(elseExpr, doc)
}

// referenceProject evaluates a $project specification against one document:
// 1/true includes a field, 0/false excludes it (only _id), any other value is
// an expression computing a new field. The document's own _id leads the
// output unless the specification says otherwise: _id: 0 drops it, and a
// computed _id or a path below _id takes its place in specification order.
func referenceProject(spec, d *bson.Doc) (*bson.Doc, error) {
	leadID := true
	for _, f := range spec.Fields() {
		_, isNumber := bson.AsFloat(f.Value)
		_, isBool := f.Value.(bool)
		isFlag := isNumber || isBool
		if strings.HasPrefix(f.Key, "_id.") || (f.Key == bson.IDKey && !(isFlag && bson.Truthy(f.Value))) {
			leadID = false
		}
	}
	out := bson.NewDoc(spec.Len() + 1)
	if id, ok := d.Get(bson.IDKey); ok && leadID {
		out.Set(bson.IDKey, id)
	}
	for _, f := range spec.Fields() {
		switch v := f.Value.(type) {
		case int64, float64, bool:
			if val, ok := d.GetPath(f.Key); ok && bson.Truthy(v) && f.Key != bson.IDKey {
				if err := out.SetPath(f.Key, val); err != nil {
					return nil, err
				}
			}
		default:
			val, err := Evaluate(f.Value, d)
			if err != nil {
				return nil, err
			}
			if err := out.SetPath(f.Key, val); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// referenceAddFields evaluates an $addFields specification: every expression
// sees the input document, and the results are set into a copy of it.
func referenceAddFields(spec, d *bson.Doc) (*bson.Doc, error) {
	nd := d.Clone()
	for _, f := range spec.Fields() {
		v, err := Evaluate(f.Value, d)
		if err != nil {
			return nil, err
		}
		if err := nd.SetPath(f.Key, v); err != nil {
			return nil, err
		}
	}
	return nd, nil
}

// referenceGroup evaluates a $group specification over the documents: a row
// joins the first bucket whose _id compares equal to its own, buckets come
// out in first-seen order under the first _id seen, and each accumulator is
// computed from the list of values its expression took in the bucket.
func referenceGroup(spec *bson.Doc, docs []*bson.Doc) ([]*bson.Doc, error) {
	idExpr, _ := spec.Get(bson.IDKey)
	type bucket struct {
		id   any
		rows []*bson.Doc
	}
	var buckets []*bucket
rows:
	for _, d := range docs {
		id, err := Evaluate(idExpr, d)
		if err != nil {
			return nil, err
		}
		for _, b := range buckets {
			if bson.Compare(b.id, id) == 0 {
				b.rows = append(b.rows, d)
				continue rows
			}
		}
		buckets = append(buckets, &bucket{id: id, rows: []*bson.Doc{d}})
	}
	var out []*bson.Doc
	for _, b := range buckets {
		row := bson.D(bson.IDKey, b.id)
		for _, f := range spec.Fields() {
			if f.Key == bson.IDKey {
				continue
			}
			acc := f.Value.(*bson.Doc).Fields()[0]
			values := make([]any, len(b.rows))
			for i, d := range b.rows {
				var err error
				if acc.Key == "$count" {
					continue
				}
				if values[i], err = Evaluate(acc.Value, d); err != nil {
					return nil, err
				}
			}
			row.Set(f.Key, referenceAccumulate(acc.Key, values))
		}
		out = append(out, row)
	}
	return out, nil
}

func referenceAccumulate(op string, values []any) any {
	var sum any = int64(0)
	var numbers int
	var least, greatest any
	list := []any{}
	for _, v := range values {
		if bson.IsNumeric(v) {
			sum = refArith("$add", sum, v)
			numbers++
		}
		if v != nil && (least == nil || bson.Compare(v, least) < 0) {
			least = v
		}
		if v != nil && (greatest == nil || bson.Compare(v, greatest) > 0) {
			greatest = v
		}
		seen := false
		for _, e := range list {
			seen = seen || bson.Compare(e, v) == 0
		}
		if op == "$push" || !seen {
			list = append(list, v)
		}
	}
	switch op {
	case "$sum":
		return sum
	case "$avg":
		if numbers == 0 {
			return nil
		}
		f, _ := bson.AsFloat(sum)
		return f / float64(numbers)
	case "$count":
		return int64(len(values))
	case "$min":
		return least
	case "$max":
		return greatest
	case "$first":
		return values[0]
	case "$last":
		return values[len(values)-1]
	default: // $push, $addToSet
		return list
	}
}

// ReferenceRun runs a pipeline stage by stage over materialized documents,
// the three stages that evaluate expressions through the reference above and
// the others ($match, $sort, $limit, …, which hold no expression) through
// the one-stage pipeline Parse makes of them.
func ReferenceRun(stages, docs []*bson.Doc, env Env) ([]*bson.Doc, error) {
	for _, stage := range stages {
		name, spec := stage.Fields()[0].Key, stage.Fields()[0].Value
		var err error
		switch name {
		case "$group":
			docs, err = referenceGroup(spec.(*bson.Doc), docs)
		case "$project":
			docs, err = referenceEach(referenceProject, spec.(*bson.Doc), docs)
		case "$addFields", "$set":
			docs, err = referenceEach(referenceAddFields, spec.(*bson.Doc), docs)
		default:
			docs, err = MustParse([]*bson.Doc{stage}).Run(docs, env)
		}
		if err != nil {
			return nil, err
		}
	}
	return docs, nil
}

func referenceEach(apply func(spec, d *bson.Doc) (*bson.Doc, error), spec *bson.Doc, docs []*bson.Doc) ([]*bson.Doc, error) {
	out := make([]*bson.Doc, len(docs))
	for i, d := range docs {
		var err error
		if out[i], err = apply(spec, d); err != nil {
			return nil, err
		}
	}
	return out, nil
}
