// Package aggregate implements the aggregation-pipeline framework of the
// document store: the staged document-processing pipeline of §4.1.3.1 with
// the stages and operators the thesis' queries use ($match, $group, $project,
// $sort, $limit, $skip, $unwind, $count, $out, $lookup and the accumulator
// and arithmetic/conditional expression operators of Table 4.2).
//
// Parse compiles a pipeline once: every expression becomes a closure over
// compiled field paths, with its operator, argument count and $cond shape
// already checked, so running it over a document interprets nothing.
package aggregate

import (
	"fmt"
	"math"
	"strings"

	"docstore/internal/bson"
)

// expr is a compiled aggregation expression.
//
// Expression forms:
//   - "$a.b"            field path reference
//   - scalar literals   returned as-is
//   - {"$op": args}     operator expression
//   - {k: expr, ...}    document literal whose values are evaluated
//   - [expr, ...]       array literal whose elements are evaluated
type expr func(d *bson.Doc) (any, error)

func constant(v any) expr {
	return func(*bson.Doc) (any, error) { return v, nil }
}

// compileExpr resolves everything about an expression that does not depend
// on the document: paths are split, literals normalized, operators looked up
// and their argument counts checked. What is left to fail at run time depends
// on values ($divide by zero, $concat of a number).
func compileExpr(e any) (expr, error) {
	switch t := e.(type) {
	case string:
		if !strings.HasPrefix(t, "$") {
			return constant(t), nil
		}
		path := bson.NewPath(t[1:])
		return func(d *bson.Doc) (any, error) {
			v, _ := path.Get(d) // a missing field evaluates to null
			return v, nil
		}, nil
	case *bson.Doc:
		if op, arg, ok := singleOperator(t); ok {
			return compileOperator(op, arg)
		}
		keys := t.Keys()
		values := make([]any, len(keys))
		for i, f := range t.Fields() {
			values[i] = f.Value
		}
		fields, err := compileAll(values)
		if err != nil {
			return nil, err
		}
		return func(d *bson.Doc) (any, error) {
			out := bson.NewDoc(len(keys))
			for i, f := range fields {
				v, err := f(d)
				if err != nil {
					return nil, err
				}
				out.Set(keys[i], v)
			}
			return out, nil
		}, nil
	case []any:
		elems, err := compileAll(t)
		if err != nil {
			return nil, err
		}
		return func(d *bson.Doc) (any, error) {
			out := make([]any, len(elems))
			for i, e := range elems {
				v, err := e(d)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		}, nil
	default:
		return constant(bson.Normalize(e)), nil
	}
}

func compileAll(es []any) ([]expr, error) {
	out := make([]expr, len(es))
	for i, e := range es {
		var err error
		if out[i], err = compileExpr(e); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// singleOperator reports whether the document is an operator expression
// ({"$cond": ...}) and returns its operator and argument.
func singleOperator(d *bson.Doc) (string, any, bool) {
	if d.Len() != 1 {
		return "", nil, false
	}
	f := d.Fields()[0]
	if !strings.HasPrefix(f.Key, "$") {
		return "", nil, false
	}
	return f.Key, f.Value, true
}

// operator is how one expression operator compiles: how many arguments it
// takes (max < 0 for any number) and the closure over them. An operator's
// argument is a single expression or an array of expressions; whole marks the
// operators that take their argument as one expression even when it is an
// array literal.
type operator struct {
	min, max int
	whole    bool
	build    func(args []expr) expr
}

func compileOperator(op string, arg any) (expr, error) {
	switch op {
	case "$literal":
		return constant(bson.Normalize(arg)), nil
	case "$cond":
		return compileCond(arg)
	}
	o, ok := operators[op]
	if !ok {
		return nil, fmt.Errorf("unknown expression operator %s", op)
	}
	list, isList := arg.([]any)
	if !isList || o.whole {
		list = []any{arg}
	}
	if len(list) < o.min || (o.max >= 0 && len(list) > o.max) {
		return nil, fmt.Errorf("%s takes %s, got %d", op, o.arity(), len(list))
	}
	args, err := compileAll(list)
	if err != nil {
		return nil, err
	}
	return o.build(args), nil
}

func (o operator) arity() string {
	switch {
	case o.max < 0:
		return fmt.Sprintf("at least %d arguments", o.min)
	case o.min == 1:
		return "exactly one argument"
	default:
		return fmt.Sprintf("exactly %d arguments", o.min)
	}
}

// op1, op2 and opN wrap a function of values into an operator. The
// arguments are evaluated in order and the first error wins; no argument
// slice is built.
func op1(f func(v any) (any, error)) operator {
	return operator{min: 1, max: 1, build: func(args []expr) expr {
		x := args[0]
		return func(d *bson.Doc) (any, error) {
			v, err := x(d)
			if err != nil {
				return nil, err
			}
			return f(v)
		}
	}}
}

func op2(f func(a, b any) (any, error)) operator {
	return operator{min: 2, max: 2, build: func(args []expr) expr {
		x, y := args[0], args[1]
		return func(d *bson.Doc) (any, error) {
			a, err := x(d)
			if err != nil {
				return nil, err
			}
			b, err := y(d)
			if err != nil {
				return nil, err
			}
			return f(a, b)
		}
	}}
}

func opN(build func(args []expr) expr) operator {
	return operator{min: 0, max: -1, build: build}
}

func whole(o operator) operator {
	o.whole = true
	return o
}

var operators = map[string]operator{
	"$add":      opN(arithmeticN("$add", (*number).add)),
	"$multiply": opN(arithmeticN("$multiply", (*number).mul)),
	"$subtract": op2(arithmetic2("$subtract", func(a, b int64) (any, error) {
		if d := a - b; (d < a) == (b > 0) {
			return d, nil
		}
		return float64(a) - float64(b), nil
	}, func(a, b float64) (any, error) { return a - b, nil })),
	"$divide": op2(arithmetic2("$divide", nil, func(a, b float64) (any, error) {
		if b == 0 {
			return nil, fmt.Errorf("$divide by zero")
		}
		return a / b, nil
	})),
	"$mod": op2(arithmetic2("$mod", func(a, b int64) (any, error) {
		if b == 0 {
			return nil, fmt.Errorf("$mod by zero")
		}
		return a % b, nil
	}, func(a, b float64) (any, error) {
		if b == 0 {
			return nil, fmt.Errorf("$mod by zero")
		}
		return math.Mod(a, b), nil
	})),
	"$pow": op2(arithmetic2("$pow", nil, func(a, b float64) (any, error) { return math.Pow(a, b), nil })),
	"$abs": op1(arithmetic1("$abs", func(n int64) any {
		switch {
		case n >= 0:
			return n
		case n == math.MinInt64:
			return -float64(n)
		default:
			return -n
		}
	}, func(f float64) (any, error) { return math.Abs(f), nil })),
	"$floor": op1(arithmetic1("$floor", integer, func(f float64) (any, error) { return int64(math.Floor(f)), nil })),
	"$ceil":  op1(arithmetic1("$ceil", integer, func(f float64) (any, error) { return int64(math.Ceil(f)), nil })),
	"$trunc": op1(arithmetic1("$trunc", integer, func(f float64) (any, error) { return int64(math.Trunc(f)), nil })),
	"$sqrt": op1(arithmetic1("$sqrt", nil, func(f float64) (any, error) {
		if f < 0 {
			return nil, fmt.Errorf("$sqrt of negative value")
		}
		return math.Sqrt(f), nil
	})),
	"$cmp": op2(func(a, b any) (any, error) { return int64(bson.Compare(a, b)), nil }),
	"$eq":  comparison(func(c int) bool { return c == 0 }),
	"$ne":  comparison(func(c int) bool { return c != 0 }),
	"$gt":  comparison(func(c int) bool { return c > 0 }),
	"$gte": comparison(func(c int) bool { return c >= 0 }),
	"$lt":  comparison(func(c int) bool { return c < 0 }),
	"$lte": comparison(func(c int) bool { return c <= 0 }),
	"$and": opN(logical(true)),
	"$or":  opN(logical(false)),
	"$not": op1(func(v any) (any, error) { return !bson.Truthy(v), nil }),
	"$ifNull": op2(func(a, b any) (any, error) {
		if a == nil {
			return b, nil
		}
		return a, nil
	}),
	"$concat": opN(concat),
	"$toLower": whole(op1(func(v any) (any, error) {
		s, _ := v.(string)
		return strings.ToLower(s), nil
	})),
	"$toUpper": whole(op1(func(v any) (any, error) {
		s, _ := v.(string)
		return strings.ToUpper(s), nil
	})),
	"$size": whole(op1(func(v any) (any, error) {
		arr, ok := v.([]any)
		if !ok {
			return nil, fmt.Errorf("$size requires an array, got %T", v)
		}
		return int64(len(arr)), nil
	})),
	"$in": op2(func(v, in any) (any, error) {
		arr, ok := in.([]any)
		if !ok {
			return nil, fmt.Errorf("$in second argument must be an array")
		}
		for _, e := range arr {
			if bson.Compare(e, v) == 0 {
				return true, nil
			}
		}
		return false, nil
	}),
}

// number is a running total: an int64 while every operand was an int64 and
// the total fits one, a float64 from then on, as the real server's $add,
// $multiply and $sum are.
type number struct {
	i       int64
	f       float64
	isFloat bool
}

// value returns the total as a document value.
func (n *number) value() any {
	if n.isFloat {
		return n.f
	}
	return n.i
}

func (n *number) float() float64 {
	if n.isFloat {
		return n.f
	}
	return float64(n.i)
}

// add adds v and reports whether v was a number.
func (n *number) add(v any) bool {
	switch t := v.(type) {
	case int64:
		if n.isFloat {
			n.f += float64(t)
		} else if s := n.i + t; (s > n.i) == (t > 0) {
			n.i = s
		} else {
			n.f, n.isFloat = float64(n.i)+float64(t), true
		}
	case float64:
		n.f, n.isFloat = n.float()+t, true
	default:
		return false
	}
	return true
}

// mul multiplies by v and reports whether v was a number.
func (n *number) mul(v any) bool {
	switch t := v.(type) {
	case int64:
		if n.isFloat {
			n.f *= float64(t)
		} else if p := n.i * t; n.i == 0 || (p/n.i == t && !(n.i == -1 && t == math.MinInt64)) {
			n.i = p
		} else {
			n.f, n.isFloat = float64(n.i)*float64(t), true
		}
	case float64:
		n.f, n.isFloat = n.float()*t, true
	default:
		return false
	}
	return true
}

// arithmeticN folds its arguments into a number with step, starting from
// step's identity. A null argument makes the result null; the arguments after
// it are still evaluated, so an error in one of them is still reported.
func arithmeticN(op string, step func(*number, any) bool) func(args []expr) expr {
	var identity number
	if op == "$multiply" {
		identity.i = 1
	}
	return func(args []expr) expr {
		return func(d *bson.Doc) (any, error) {
			total, null := identity, false
			for _, arg := range args {
				v, err := arg(d)
				if err != nil {
					return nil, err
				}
				if null || v == nil {
					null = true
				} else if !step(&total, v) {
					return nil, fmt.Errorf("%s argument %v is not numeric", op, v)
				}
			}
			if null {
				return nil, nil
			}
			return total.value(), nil
		}
	}
}

// arithmetic2 is a two-argument arithmetic operator: null if either argument
// is, ints when both are int64 and the operator has an integer form, float
// otherwise.
func arithmetic2(op string, ints func(a, b int64) (any, error), floats func(a, b float64) (any, error)) func(a, b any) (any, error) {
	return func(a, b any) (any, error) {
		if a == nil || b == nil {
			return nil, nil
		}
		fa, aok := bson.AsFloat(a)
		fb, bok := bson.AsFloat(b)
		if !aok || !bok {
			return nil, fmt.Errorf("%s arguments must be numeric, got %v and %v", op, a, b)
		}
		if ia, isInt := a.(int64); isInt && ints != nil {
			if ib, isInt := b.(int64); isInt {
				return ints(ia, ib)
			}
		}
		return floats(fa, fb)
	}
}

// arithmetic1 is the one-argument form of arithmetic2.
func arithmetic1(op string, ints func(n int64) any, floats func(f float64) (any, error)) func(v any) (any, error) {
	return func(v any) (any, error) {
		if v == nil {
			return nil, nil
		}
		f, ok := bson.AsFloat(v)
		if !ok {
			return nil, fmt.Errorf("%s argument %v is not numeric", op, v)
		}
		if n, isInt := v.(int64); isInt && ints != nil {
			return ints(n), nil
		}
		return floats(f)
	}
}

// integer is the integer form of $floor, $ceil and $trunc.
func integer(n int64) any { return n }

func comparison(holds func(cmp int) bool) operator {
	return op2(func(a, b any) (any, error) { return holds(bson.Compare(a, b)), nil })
}

// logical builds $and (and true) and $or: the arguments are evaluated until
// one decides the result, and the rest are not evaluated at all.
func logical(and bool) func(args []expr) expr {
	return func(args []expr) expr {
		return func(d *bson.Doc) (any, error) {
			for _, arg := range args {
				v, err := arg(d)
				if err != nil {
					return nil, err
				}
				if bson.Truthy(v) != and {
					return !and, nil
				}
			}
			return and, nil
		}
	}
}

// concat is null when any argument is; like arithmeticN it evaluates the
// arguments after a null.
func concat(args []expr) expr {
	return func(d *bson.Doc) (any, error) {
		var b strings.Builder
		null := false
		for _, arg := range args {
			v, err := arg(d)
			if err != nil {
				return nil, err
			}
			s, isString := v.(string)
			switch {
			case null || v == nil:
				null = true
			case !isString:
				return nil, fmt.Errorf("$concat argument %v is not a string", v)
			default:
				b.WriteString(s)
			}
		}
		if null {
			return nil, nil
		}
		return b.String(), nil
	}
}

// compileCond supports both the array form [if, then, else] and the document
// form {if: ..., then: ..., else: ...}.
func compileCond(arg any) (expr, error) {
	var branches []any
	switch t := arg.(type) {
	case []any:
		if len(t) != 3 {
			return nil, fmt.Errorf("$cond array form takes [if, then, else], got %d elements", len(t))
		}
		branches = t
	case *bson.Doc:
		ifExpr, ok1 := t.Get("if")
		thenExpr, ok2 := t.Get("then")
		elseExpr, ok3 := t.Get("else")
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("$cond document form requires if/then/else")
		}
		branches = []any{ifExpr, thenExpr, elseExpr}
	default:
		return nil, fmt.Errorf("$cond requires an array or document argument")
	}
	compiled, err := compileAll(branches)
	if err != nil {
		return nil, err
	}
	cond, then, otherwise := compiled[0], compiled[1], compiled[2]
	return func(d *bson.Doc) (any, error) {
		c, err := cond(d)
		if err != nil {
			return nil, err
		}
		if bson.Truthy(c) {
			return then(d)
		}
		return otherwise(d)
	}, nil
}
