package aggregate

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"docstore/internal/bson"
)

// sameValue is equality to the byte: int64(1) and 1.0 differ, field order
// counts.
func sameValue(a, b any) bool {
	return bytes.Equal(bson.Marshal(bson.D("v", a)), bson.Marshal(bson.D("v", b)))
}

func sameDocs(a, b []*bson.Doc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// The generator behind TestCompiledEquivalence.

type exprGen struct {
	r         *rand.Rand
	ops       []string // every operator of expr.go
	malformed bool     // the expression being built is wrong whatever the document
}

func newExprGen(seed int64) *exprGen {
	g := &exprGen{r: rand.New(rand.NewSource(seed)), ops: []string{"$cond", "$literal"}}
	for op := range operators {
		g.ops = append(g.ops, op)
	}
	sort.Strings(g.ops)
	return g
}

func (g *exprGen) pick(xs ...any) any { return xs[g.r.Intn(len(xs))] }

// number is an int64 or a float64, small or near the edges where int64
// arithmetic and float64 arithmetic part ways.
func (g *exprGen) number() any {
	switch g.r.Intn(10) {
	case 0:
		return g.pick(int64(1)<<53+1, int64(math.MaxInt64), int64(math.MinInt64), int64(math.MaxInt64)-3, int64(-1), int64(1)<<62)
	case 1, 2, 3:
		return g.pick(0.0, 0.5, -2.5, 1.0, 3.0, 1e300, float64(1<<53))
	default:
		return int64(g.r.Intn(9) - 3)
	}
}

// doc is an input document: fields missing, null, int or float, a nested
// document two levels deep, an array of scalars and an array of documents
// (an array in the middle of "docs.x"), in one of two field orders.
func (g *exprGen) doc() *bson.Doc {
	d := bson.NewDoc(8)
	set := func(key string, v any) {
		switch g.r.Intn(8) {
		case 0: // missing
		case 1:
			d.Set(key, nil)
		default:
			d.Set(key, v)
		}
	}
	d.Set(bson.IDKey, int64(g.r.Intn(1000)))
	set("a", g.number())
	set("b", g.number())
	set("c", g.pick(g.number(), "text", true))
	set("s", g.pick("Earl", "garrison", "", "x"))
	set("n", bson.D("x", g.number(), "y", g.pick(g.number(), nil, "why"), "z", bson.D("w", g.number())))
	set("arr", g.pick(bson.A(), bson.A(1, 2.0, 3), bson.A("x", "Earl"), bson.A(int64(1), nil)))
	set("docs", bson.A(bson.D("x", g.number()), bson.D("x", g.number())))
	if g.r.Intn(2) == 0 {
		rev := bson.NewDoc(d.Len())
		for i := d.Len() - 1; i >= 0; i-- {
			rev.Set(d.Fields()[i].Key, d.Fields()[i].Value)
		}
		return rev
	}
	return d
}

// Kinds of value an expression is generated to produce, so that most
// operators get arguments they accept; one in ten arguments ignores it.
const (
	anyKind = iota
	numKind
	strKind
	arrKind
)

func (g *exprGen) expr(depth, kind int) any {
	if g.r.Intn(10) == 0 {
		kind = anyKind
	}
	if depth <= 0 || g.r.Intn(4) == 0 {
		return g.leaf(kind)
	}
	switch kind {
	case numKind:
		op := g.pick("$add", "$multiply", "$subtract", "$divide", "$mod", "$pow", "$abs", "$floor", "$ceil",
			"$trunc", "$sqrt", "$cmp", "$size", "$cond", "$ifNull").(string)
		return g.operator(op, depth)
	case strKind:
		return g.operator(g.pick("$concat", "$toLower", "$toUpper", "$cond", "$ifNull").(string), depth)
	case arrKind:
		return g.list(depth, g.r.Intn(4), anyKind)
	}
	switch g.r.Intn(8) {
	case 0:
		return bson.D("k", g.expr(depth-1, anyKind), "j", g.expr(depth-1, numKind)) // a document literal
	case 1:
		return g.list(depth, g.r.Intn(3), anyKind) // an array literal
	default:
		return g.operator(g.ops[g.r.Intn(len(g.ops))], depth)
	}
}

func (g *exprGen) list(depth, n, kind int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = g.expr(depth-1, kind)
	}
	return out
}

func (g *exprGen) leaf(kind int) any {
	switch kind {
	case numKind:
		return g.pick("$a", "$b", "$n.x", "$n.z.w", "$missing", "$c", g.number(), g.number())
	case strKind:
		return g.pick("$s", "$n.y", "$c", "lit", "", "$missing")
	case arrKind:
		return g.pick("$arr", "$docs", "$docs.x", "$missing", bson.D("$literal", bson.A(1, "x")))
	}
	return g.pick("$a", "$b", "$c", "$s", "$n", "$n.x", "$n.y", "$n.z.w", "$n.missing", "$arr", "$docs", "$docs.x",
		"$missing", "$_id", g.number(), "plain", nil, true, false)
}

func (g *exprGen) operator(op string, depth int) any {
	if g.r.Intn(150) == 0 {
		g.malformed = true
		switch g.r.Intn(3) {
		case 0:
			return bson.D("$frobnicate", g.expr(depth-1, anyKind))
		case 1:
			return bson.D("$subtract", g.list(depth, 3, numKind))
		default:
			return bson.D("$cond", g.list(depth, 2, anyKind))
		}
	}
	switch op {
	case "$literal":
		return bson.D(op, g.pick("$a", g.number(), bson.A("$a"), bson.D("$add", 1)))
	case "$cond":
		kind := g.r.Intn(3)
		test := g.operator(g.pick("$eq", "$gt", "$lte", "$and", "$or", "$not", "$in").(string), depth-1)
		if g.r.Intn(2) == 0 {
			return bson.D(op, bson.A(test, g.expr(depth-1, kind), g.expr(depth-1, kind)))
		}
		return bson.D(op, bson.D("if", test, "then", g.expr(depth-1, kind), "else", g.expr(depth-1, kind)))
	case "$in":
		return bson.D(op, bson.A(g.expr(depth-1, anyKind), g.expr(depth-1, arrKind)))
	case "$size":
		return bson.D(op, g.expr(depth-1, arrKind))
	case "$toLower", "$toUpper":
		return bson.D(op, g.expr(depth-1, strKind))
	case "$concat":
		return bson.D(op, g.list(depth, g.r.Intn(4), strKind))
	case "$and", "$or":
		return bson.D(op, g.list(depth, g.r.Intn(4), anyKind))
	case "$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$cmp", "$ifNull":
		return bson.D(op, g.list(depth, 2, g.r.Intn(3)))
	case "$not":
		return bson.D(op, g.oneArgument(depth, anyKind))
	}
	o := operators[op]
	switch {
	case o.max < 0:
		return bson.D(op, g.list(depth, g.r.Intn(4), numKind))
	case o.min == 1:
		return bson.D(op, g.oneArgument(depth, numKind))
	default:
		return bson.D(op, g.list(depth, o.min, numKind))
	}
}

// oneArgument is the argument of a one-argument operator in either of its
// forms: the expression bare — unless it is an array literal, which would
// read as the argument list — or as a list of one.
func (g *exprGen) oneArgument(depth, kind int) any {
	e := g.expr(depth-1, kind)
	if _, isList := e.([]any); isList || g.r.Intn(2) == 0 {
		return []any{e}
	}
	return e
}

func (g *exprGen) groupSpec() *bson.Doc {
	var id any
	switch g.r.Intn(5) {
	case 0:
		id = nil
	case 1:
		id = g.pick("$a", "$c", "$n.x", "$n") // 1 and 1.0, null and missing, documents
	case 2:
		id = bson.D("p", g.expr(1, numKind), "q", g.pick("$s", "$b", "$missing"))
	case 3:
		id = bson.NewDoc(0)
	default:
		id = g.expr(2, anyKind)
	}
	spec := bson.D(bson.IDKey, id)
	names := make([]string, 0, len(accumulatorOps))
	for name := range accumulatorOps {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
		name := names[g.r.Intn(len(names))]
		var arg any = bson.NewDoc(0) // $count takes no expression
		if name != "$count" {
			arg = g.expr(2, g.r.Intn(2))
		}
		spec.Set(fmt.Sprintf("f%d", i), bson.D(name, arg))
	}
	return spec
}

func (g *exprGen) projectSpec() *bson.Doc {
	keys := []string{bson.IDKey, "a", "b", "out", "n.x", "n.y", "m.p", "m.q", "_id.k", "docs"}
	g.r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	spec := bson.NewDoc(4)
	for _, key := range keys[:1+g.r.Intn(4)] {
		switch g.r.Intn(5) {
		case 0, 1:
			spec.Set(key, g.pick(1, true, 1.0))
		case 2:
			spec.Set(key, g.pick(0, false))
		default:
			spec.Set(key, g.expr(2, anyKind))
		}
	}
	return spec
}

func (g *exprGen) addFieldsSpec() *bson.Doc {
	keys := []string{"a", "z", "n.x", "n.q", "s.k", "docs.k", "m.p.q", bson.IDKey}
	g.r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	spec := bson.NewDoc(3)
	for _, key := range keys[:1+g.r.Intn(3)] {
		spec.Set(key, g.expr(2, anyKind))
	}
	return spec
}

// TestCompiledEquivalence checks the compiled stages against the reference
// interpreter of reference_test.go on seeded random cases: expressions over
// every operator nested to depth 4, and $group, $project and $addFields
// stages, each over documents with missing fields, nulls, arrays in the
// middle of a path, mixed int64 and float64 and two field orders. Value,
// error-or-not and field order must agree. The one difference allowed is the
// intended one: an expression that is wrong whatever the document (the
// generator plants a few) is refused by Parse, where the reference only
// notices when a document reaches the operator.
func TestCompiledEquivalence(t *testing.T) {
	const cases = 10000
	g := newExprGen(19)
	var failed, refused, values int
	for c := 0; c < cases; c++ {
		docs := make([]*bson.Doc, 1+g.r.Intn(6))
		for i := range docs {
			docs[i] = g.doc()
		}
		g.malformed = false
		var what any // the expression or the stage, for messages
		var compile func() (func() ([]*bson.Doc, error), error)
		var reference func() ([]*bson.Doc, error)
		stage := func(name string, spec *bson.Doc, ref func() ([]*bson.Doc, error)) {
			what, reference = bson.D(name, spec), ref
			compile = func() (func() ([]*bson.Doc, error), error) {
				p, err := Parse([]*bson.Doc{bson.D(name, spec)})
				if err != nil {
					if !strings.Contains(err.Error(), "stage 0") {
						t.Fatalf("case %d: Parse error %q does not name the stage", c, err)
					}
					return nil, err
				}
				return func() ([]*bson.Doc, error) { return p.Run(docs, nil) }, nil
			}
		}
		switch kind := c % 10; {
		case kind < 7:
			e := g.expr(4, anyKind)
			what = e
			each := func(eval func(d *bson.Doc) (any, error)) ([]*bson.Doc, error) {
				out := make([]*bson.Doc, len(docs))
				for i, d := range docs {
					v, err := eval(d)
					if err != nil {
						return nil, err
					}
					out[i] = bson.D("v", v)
				}
				return out, nil
			}
			compile = func() (func() ([]*bson.Doc, error), error) {
				compiled, err := compileExpr(e)
				return func() ([]*bson.Doc, error) { return each(compiled) }, err
			}
			reference = func() ([]*bson.Doc, error) {
				return each(func(d *bson.Doc) (any, error) { return Evaluate(e, d) })
			}
		case kind == 7:
			spec := g.groupSpec()
			stage("$group", spec, func() ([]*bson.Doc, error) { return referenceGroup(spec, docs) })
		case kind == 8:
			spec := g.projectSpec()
			stage("$project", spec, func() ([]*bson.Doc, error) { return referenceEach(referenceProject, spec, docs) })
		default:
			spec := g.addFieldsSpec()
			stage("$addFields", spec, func() ([]*bson.Doc, error) { return referenceEach(referenceAddFields, spec, docs) })
		}
		run, err := compile()
		if g.malformed != (err != nil) {
			t.Fatalf("case %d: compiling %v: %v; the generator planted a static error: %v", c, what, err, g.malformed)
		}
		if err != nil {
			refused++
			continue
		}
		want, wantErr := reference()
		got, gotErr := run()
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("case %d: %v over %v:\ncompiled  error %v\nreference error %v", c, what, docs, gotErr, wantErr)
		}
		if gotErr != nil {
			failed++
			continue
		}
		if !sameDocs(got, want) {
			t.Fatalf("case %d: %v over %v:\ncompiled  %v\nreference %v", c, what, docs, got, want)
		}
		values++
	}
	t.Logf("%d cases: %d agreed on a value, %d on a run-time error, %d refused when compiled", cases, values, failed, refused)
	if values < cases/2 || failed < cases/50 || refused < cases/500 {
		t.Fatalf("the generator is lopsided: %d values, %d run-time errors, %d refused", values, failed, refused)
	}
}

// ---------------------------------------------------------------------------
// The behaviour the compile step changed, each pinned on its own.

// TestStaticErrorsAreParseErrors: what is wrong with an expression whatever
// the documents hold is refused by Parse, with the stage's index, so that a
// pipeline does not succeed on an empty collection and fail on a full one.
// What depends on values stays a run-time error.
func TestStaticErrorsAreParseErrors(t *testing.T) {
	match := bson.D("$match", bson.D("a", 1))
	static := []struct {
		name  string
		stage *bson.Doc
	}{
		{"unknown operator", bson.D("$project", bson.D("x", bson.D("$frobnicate", "$a")))},
		{"$subtract with three", bson.D("$project", bson.D("x", bson.D("$subtract", bson.A(1, 2, 3))))},
		{"$divide with one", bson.D("$addFields", bson.D("x", bson.D("$divide", bson.A(1))))},
		{"$cond with two", bson.D("$project", bson.D("x", bson.D("$cond", bson.A(true, 1))))},
		{"$cond without else", bson.D("$project", bson.D("x", bson.D("$cond", bson.D("if", true, "then", 1))))},
		{"$cond of a scalar", bson.D("$project", bson.D("x", bson.D("$cond", 5)))},
		{"$not with none", bson.D("$project", bson.D("x", bson.D("$not", bson.A())))},
		{"$not with two", bson.D("$project", bson.D("x", bson.D("$not", bson.A(1, 2))))},
		{"$abs with two", bson.D("$project", bson.D("x", bson.D("$abs", bson.A(1, 2))))},
		{"$ifNull with one", bson.D("$project", bson.D("x", bson.D("$ifNull", bson.A("$a"))))},
		{"$in with three", bson.D("$project", bson.D("x", bson.D("$in", bson.A(1, 2, 3))))},
		{"in an untaken branch", bson.D("$project", bson.D("x", bson.D("$cond", bson.A(true, 1, bson.D("$bogus", 1)))))},
		{"in a document literal", bson.D("$project", bson.D("x", bson.D("k", bson.D("j", bson.D("$eq", bson.A(1))))))},
		{"in a group key", bson.D("$group", bson.D(bson.IDKey, bson.D("k", bson.D("$bogus", 1))))},
		{"in an accumulator", bson.D("$group", bson.D(bson.IDKey, nil, "x", bson.D("$sum", bson.D("$subtract", bson.A(1)))))},
		{"an accumulator as an expression", bson.D("$group", bson.D(bson.IDKey, nil, "x", bson.D("$sum", bson.D("$avg", "$a"))))},
		{"an unknown accumulator", bson.D("$group", bson.D(bson.IDKey, nil, "x", bson.D("$median", "$a")))},
	}
	for _, c := range static {
		_, err := Parse([]*bson.Doc{match, c.stage})
		if err == nil || !strings.Contains(err.Error(), "stage 1") {
			t.Errorf("%s: Parse = %v, want an error naming stage 1", c.name, err)
		}
	}
	dynamic := []struct {
		name string
		expr any
	}{
		{"$divide by zero", bson.D("$divide", bson.A("$a", "$zero"))},
		{"$mod by zero", bson.D("$mod", bson.A("$a", "$zero"))},
		{"$concat of a number", bson.D("$concat", bson.A("$s", "$a"))},
		{"$add of a string", bson.D("$add", bson.A("$a", "$s"))},
		{"$sqrt of a negative", bson.D("$sqrt", "$neg")},
		{"$size of a string", bson.D("$size", "$s")},
		{"$in of a non-array", bson.D("$in", bson.A(1, "$a"))},
	}
	doc := bson.D("a", 6, "zero", 0, "s", "six", "neg", -4)
	for _, c := range dynamic {
		p, err := Parse([]*bson.Doc{bson.D("$project", bson.D("x", c.expr))})
		if err != nil {
			t.Errorf("%s: Parse = %v, want a pipeline that fails when a document reaches it", c.name, err)
			continue
		}
		if out, err := p.Run(nil, nil); err != nil || len(out) != 0 {
			t.Errorf("%s over no documents = %v, %v", c.name, out, err)
		}
		if _, err := p.Run([]*bson.Doc{doc}, nil); err == nil {
			t.Errorf("%s over %v should fail", c.name, doc)
		}
	}
}

// TestIntegerArithmetic: $add, $multiply, $subtract, $mod, $abs and $sum of
// int64 operands compute in int64 — the parent commit went through float64
// and returned 2^53 for 2^53 + 1 — and promote to float64 on overflow.
func TestIntegerArithmetic(t *testing.T) {
	const big = int64(1) << 53
	doc := bson.D("big", big, "max", int64(math.MaxInt64), "min", int64(math.MinInt64))
	cases := []struct {
		expr any
		want any
	}{
		{bson.D("$add", bson.A("$big", 1)), big + 1},
		{bson.D("$add", bson.A("$big", 1, 1, 1)), big + 3},
		{bson.D("$subtract", bson.A(bson.D("$add", bson.A("$big", 2)), 1)), big + 1},
		{bson.D("$multiply", bson.A(bson.D("$add", bson.A("$big", 1)), 3)), 3*big + 3},
		{bson.D("$mod", bson.A(bson.D("$add", bson.A("$big", 1)), 2)), int64(1)},
		{bson.D("$abs", bson.D("$subtract", bson.A(0, bson.D("$add", bson.A("$big", 1))))), big + 1},
		{bson.D("$add", bson.A("$max", 1)), float64(math.MaxInt64) + 1},
		{bson.D("$add", bson.A("$max", 1, -1)), float64(math.MaxInt64)}, // once a float, a float
		{bson.D("$add", bson.A("$min", -1)), float64(math.MinInt64) - 1},
		{bson.D("$subtract", bson.A("$min", 1)), float64(math.MinInt64) - 1},
		{bson.D("$subtract", bson.A("$max", "$min")), float64(math.MaxInt64) - float64(math.MinInt64)},
		{bson.D("$multiply", bson.A("$max", 2)), float64(math.MaxInt64) * 2},
		{bson.D("$multiply", bson.A("$min", -1)), -float64(math.MinInt64)},
		{bson.D("$multiply", bson.A(-1, "$min")), -float64(math.MinInt64)},
		{bson.D("$multiply", bson.A("$max", 0, 5)), int64(0)},
		{bson.D("$abs", "$min"), -float64(math.MinInt64)},
		{bson.D("$mod", bson.A("$min", -1)), int64(0)},
		{bson.D("$add", bson.A("$big", 1.0)), float64(big) + 1}, // a float operand: float arithmetic
		{bson.D("$floor", bson.D("$add", bson.A("$big", 1))), big + 1},
	}
	for _, c := range cases {
		got, err := evaluate(c.expr, doc)
		if err != nil || !sameValue(got, c.want) {
			t.Errorf("%v = %v (%T), %v; want %v (%T)", c.expr, got, got, err, c.want, c.want)
		}
	}
	rows := []*bson.Doc{bson.D("v", big), bson.D("v", 1), bson.D("v", "skipped"), bson.D("v", math.MaxInt64)}
	sum := func(rows []*bson.Doc) any {
		out := runPipeline(t, []*bson.Doc{bson.D("$group", bson.D(bson.IDKey, nil, "s", bson.D("$sum", "$v")))}, rows, nil)
		return out[0].GetOr("s", nil)
	}
	if got := sum(rows[:3]); got != big+1 {
		t.Errorf("$sum of 2^53 and 1 = %v (%T), want %d", got, got, big+1)
	}
	if got, want := sum(rows), float64(big+1)+float64(math.MaxInt64); got != want {
		t.Errorf("$sum past int64 = %v (%T), want %v", got, got, want)
	}
}

// TestLogicalShortCircuit: $and and $or stop at the argument that decides
// them, so an argument can guard the ones after it. The parent commit
// evaluated every argument first and failed with "$divide by zero" here.
func TestLogicalShortCircuit(t *testing.T) {
	guarded := bson.D("$and", bson.A(
		bson.D("$gt", bson.A("$b", 0)),
		bson.D("$gt", bson.A(bson.D("$divide", bson.A("$a", "$b")), 2)),
	))
	for _, c := range []struct {
		doc  *bson.Doc
		want bool
	}{
		{bson.D("a", 9, "b", 0), false},
		{bson.D("a", 9, "b", 3), true},
		{bson.D("a", 3, "b", 3), false},
	} {
		if got, err := evaluate(guarded, c.doc); err != nil || got != c.want {
			t.Errorf("%v over %v = %v, %v; want %v", guarded, c.doc, got, err, c.want)
		}
	}
	or := bson.D("$or", bson.A(bson.D("$eq", bson.A("$b", 0)), bson.D("$lt", bson.A(bson.D("$mod", bson.A("$a", "$b")), 1))))
	if got, err := evaluate(or, bson.D("a", 9, "b", 0)); err != nil || got != true {
		t.Errorf("%v = %v, %v; want true", or, got, err)
	}
	// The deciding argument's own error is still an error.
	if _, err := evaluate(bson.D("$and", bson.A(bson.D("$divide", bson.A(1, "$b")), false)), bson.D("b", 0)); err == nil {
		t.Errorf("an error before the deciding argument should surface")
	}
}

// TestGroupNumericKeys: $group buckets by what bson.Compare calls equal, as
// $match, $sort and $addToSet do: int64(1) and 1.0 are one group, reported
// under the first of them seen. The parent commit keyed buckets by the
// marshalled value, type tag included, and made two groups.
func TestGroupNumericKeys(t *testing.T) {
	docs := []*bson.Doc{
		bson.D("k", 1.0, "v", 1), bson.D("k", 1, "v", 2), bson.D("k", 2, "v", 4), bson.D("k", 2.0, "v", 8),
		bson.D("k", 2.5, "v", 16), bson.D("k", math.Copysign(0, -1), "v", 32), bson.D("k", 0, "v", 64),
		bson.D("k", nil, "v", 128), bson.D("v", 256), bson.D("k", "1", "v", 512),
	}
	out := runPipeline(t, []*bson.Doc{bson.D("$group", bson.D(bson.IDKey, "$k", "s", bson.D("$sum", "$v")))}, docs, nil)
	want := []*bson.Doc{
		bson.D(bson.IDKey, 1.0, "s", 3), bson.D(bson.IDKey, 2, "s", 12), bson.D(bson.IDKey, 2.5, "s", 16),
		bson.D(bson.IDKey, math.Copysign(0, -1), "s", 96), bson.D(bson.IDKey, nil, "s", 384), bson.D(bson.IDKey, "1", "s", 512),
	}
	if !sameDocs(out, want) {
		t.Errorf("scalar keys:\ngot  %v\nwant %v", out, want)
	}
	// Inside a compound key and inside a document the key is built from.
	docs = []*bson.Doc{
		bson.D("a", 1, "n", bson.D("x", 1.0)), bson.D("a", 1.0, "n", bson.D("x", 1)),
		bson.D("a", 1, "n", bson.D("x", 2)), bson.D("a", "1", "n", bson.D("x", 1)),
		bson.D("a", 1, "n", bson.D("y", 1)),
	}
	out = runPipeline(t, []*bson.Doc{bson.D("$group", bson.D(bson.IDKey, bson.D("a", "$a", "n", "$n"), "c", bson.D("$count", bson.NewDoc(0))))}, docs, nil)
	want = []*bson.Doc{
		bson.D(bson.IDKey, bson.D("a", 1, "n", bson.D("x", 1.0)), "c", 2),
		bson.D(bson.IDKey, bson.D("a", 1, "n", bson.D("x", 2)), "c", 1),
		bson.D(bson.IDKey, bson.D("a", "1", "n", bson.D("x", 1)), "c", 1),
		bson.D(bson.IDKey, bson.D("a", 1, "n", bson.D("y", 1)), "c", 1),
	}
	if !sameDocs(out, want) {
		t.Errorf("compound keys:\ngot  %v\nwant %v", out, want)
	}
}

// ---------------------------------------------------------------------------
// Sharing and allocation.

// TestSharedAcrossGoroutines: a parsed Pipeline holds no per-run state, only
// compiled paths whose remembered positions are hints. Eight goroutines run
// one Pipeline over documents of two interleaved layouts (the race detector
// watches the hints being rewritten); every result equals the
// single-goroutine run's.
func TestSharedAcrossGoroutines(t *testing.T) {
	p := MustParse([]*bson.Doc{
		bson.D("$match", bson.D("n.x", bson.D("$gte", 1), "a", bson.D("$exists", true))),
		bson.D("$addFields", bson.D("n.double", bson.D("$multiply", bson.A("$n.x", 2)))),
		bson.D("$project", bson.D("key", "$s", "x", "$n.double", "w", "$n.z.w", "a", 1)),
		bson.D("$group", bson.D(bson.IDKey, bson.D("key", "$key", "sign", bson.D("$gt", bson.A("$w", 0))),
			"total", bson.D("$sum", "$x"), "least", bson.D("$min", "$a"), "rows", bson.D("$count", bson.NewDoc(0)))),
		bson.D("$sort", bson.D("_id.key", 1, "_id.sign", -1)),
	})
	g := newExprGen(7)
	docs := make([]*bson.Doc, 300)
	for i := range docs {
		docs[i] = g.doc() // one of two field orders each
	}
	want, err := p.Run(docs, nil)
	if err != nil || len(want) < 4 {
		t.Fatalf("single-goroutine run: %d groups, %v", len(want), err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				got, err := p.Run(docs, nil)
				if err != nil || !sameDocs(got, want) {
					t.Errorf("goroutine %d round %d: %v, %v; alone %v", i, round, got, err, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// sale is a document shaped like the denormalized store_sales fact the four
// queries read.
func sale(ticket int) *bson.Doc {
	return bson.D(
		bson.IDKey, ticket,
		"ss_ticket_number", ticket,
		"ss_quantity", 10+ticket%7,
		"ss_list_price", 19.5,
		"ss_coupon_amt", 0.25*float64(ticket%5),
		"ss_sales_price", 17.25,
		"ss_net_profit", 4.75,
		"ss_item_sk", bson.D("i_item_sk", 31, "i_item_id", "AAAAAAAAHBAAAAAA"),
		"ss_addr_sk", bson.D("ca_address_sk", 9001, "ca_city", "Fairview"),
		"ss_customer_sk", bson.D("c_customer_sk", 101, "c_last_name", "Garrison", "c_first_name", "Earl",
			"c_current_addr_sk", bson.D("ca_address_sk", 77, "ca_city", "Midway")),
	)
}

// TestGroupExistingBucketAllocates: a row that lands in an existing bucket of
// Query 7's $group — a dotted key and four $avg over top-level fields — is
// absorbed without allocating: 0 a row. The parent commit allocated 4: a
// document, its marshalled bytes and their string for the bucket key.
func TestGroupExistingBucketAllocates(t *testing.T) {
	stage, err := parseStage("$group", bson.D(
		bson.IDKey, "$ss_item_sk.i_item_id",
		"agg1", bson.D("$avg", "$ss_quantity"),
		"agg2", bson.D("$avg", "$ss_list_price"),
		"agg3", bson.D("$avg", "$ss_coupon_amt"),
		"agg4", bson.D("$avg", "$ss_sales_price"),
	))
	if err != nil {
		t.Fatal(err)
	}
	acc := stage.(*groupStage).startAccum()
	first, row := sale(1), sale(2)
	if err := acc.absorb(first); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = acc.absorb(row) }); allocs != 0 {
		t.Fatalf("absorbing a row into an existing bucket allocated %.1f times, want 0", allocs)
	}
	if out, err := acc.finish(); err != nil || len(out) != 1 {
		t.Fatalf("finish = %v, %v; want one group", out, err)
	}
}

// TestProjectRowAllocates: one row of Query 46's $project — ten computed
// fields, seven of them dotted references — allocates its output document
// (the document and its field array: 2) and nothing per field. The parent
// commit allocated 23: a split for every dotted reference and every output
// path, an argument slice for $ne, and a second document to move _id to the
// front.
func TestProjectRowAllocates(t *testing.T) {
	stage, err := parseStage("$project", bson.D(
		"value", bson.D("$ne", bson.A("$ss_customer_sk.c_current_addr_sk.ca_city", "$ss_addr_sk.ca_city")),
		"c_last_name", "$ss_customer_sk.c_last_name",
		"c_first_name", "$ss_customer_sk.c_first_name",
		"bought_city", "$ss_addr_sk.ca_city",
		"ca_city", "$ss_customer_sk.c_current_addr_sk.ca_city",
		"ss_ticket_number", "$ss_ticket_number",
		"ss_customer_sk", "$ss_customer_sk.c_customer_sk",
		"ss_addr_sk", "$ss_addr_sk.ca_address_sk",
		"amt", "$ss_coupon_amt",
		"profit", "$ss_net_profit",
	))
	if err != nil {
		t.Fatal(err)
	}
	project := stage.(*projectStage)
	row := sale(3)
	out, err := project.applyDoc(row)
	if err != nil || out.Len() != 11 || out.Keys()[0] != bson.IDKey || out.GetOr("value", nil) != true {
		t.Fatalf("applyDoc = %v, %v", out, err)
	}
	if allocs := testing.AllocsPerRun(200, func() { _, _ = project.applyDoc(row) }); allocs != 2 {
		t.Fatalf("projecting a row allocated %.1f times, want 2 (the output document)", allocs)
	}
}
