package aggregate

import (
	"testing"

	"docstore/internal/bson"
)

// evaluate compiles an expression and runs it over one document: what a stage
// does in Parse and then per row.
func evaluate(e any, doc *bson.Doc) (any, error) {
	compiled, err := compileExpr(e)
	if err != nil {
		return nil, err
	}
	return compiled(doc)
}

func evalOK(t *testing.T, expr any, doc *bson.Doc) any {
	t.Helper()
	v, err := evaluate(expr, doc)
	if err != nil {
		t.Fatalf("evaluate(%v): %v", expr, err)
	}
	return v
}

func TestEvaluateFieldPathsAndLiterals(t *testing.T) {
	doc := bson.D("a", 5, "nested", bson.D("x", "hello"), "f", 2.5)
	if v := evalOK(t, "$a", doc); v != int64(5) {
		t.Fatalf("$a = %v", v)
	}
	if v := evalOK(t, "$nested.x", doc); v != "hello" {
		t.Fatalf("$nested.x = %v", v)
	}
	if v := evalOK(t, "$missing", doc); v != nil {
		t.Fatalf("$missing = %v", v)
	}
	if v := evalOK(t, "plain string", doc); v != "plain string" {
		t.Fatalf("literal string = %v", v)
	}
	if v := evalOK(t, 42, doc); v != int64(42) {
		t.Fatalf("literal int = %v", v)
	}
	if v := evalOK(t, bson.D("$literal", "$a"), doc); v != "$a" {
		t.Fatalf("$literal = %v", v)
	}
	// Document literal: every value evaluated.
	v := evalOK(t, bson.D("orig", "$a", "twice", bson.D("$multiply", bson.A("$a", 2))), doc)
	d := v.(*bson.Doc)
	if got, _ := d.Get("orig"); got != int64(5) {
		t.Fatalf("doc literal orig = %v", got)
	}
	if got, _ := d.Get("twice"); got != int64(10) {
		t.Fatalf("doc literal twice = %v", got)
	}
	// Array literal.
	arr := evalOK(t, bson.A("$a", 1), doc).([]any)
	if arr[0] != int64(5) || arr[1] != int64(1) {
		t.Fatalf("array literal = %v", arr)
	}
}

func TestEvaluateArithmetic(t *testing.T) {
	doc := bson.D("i", 10, "f", 2.5, "neg", -3)
	cases := []struct {
		expr any
		want any
	}{
		{bson.D("$add", bson.A("$i", 5)), int64(15)},
		{bson.D("$add", bson.A("$i", "$f")), 12.5},
		{bson.D("$subtract", bson.A("$i", 3)), int64(7)},
		{bson.D("$subtract", bson.A("$i", 0.5)), 9.5},
		{bson.D("$multiply", bson.A("$i", 3)), int64(30)},
		{bson.D("$multiply", bson.A("$f", 2)), 5.0},
		{bson.D("$divide", bson.A("$i", 4)), 2.5},
		{bson.D("$mod", bson.A("$i", 3)), int64(1)},
		{bson.D("$abs", "$neg"), int64(3)},
		{bson.D("$floor", "$f"), int64(2)},
		{bson.D("$ceil", "$f"), int64(3)},
		{bson.D("$trunc", "$f"), int64(2)},
		{bson.D("$sqrt", bson.A(16)), 4.0},
		{bson.D("$pow", bson.A(2, 10)), 1024.0},
	}
	for _, c := range cases {
		if got := evalOK(t, c.expr, doc); bson.Compare(got, bson.Normalize(c.want)) != 0 {
			t.Errorf("%v = %v (%T), want %v", c.expr, got, got, c.want)
		}
	}
	// Null propagation.
	if v := evalOK(t, bson.D("$add", bson.A("$missing", 1)), doc); v != nil {
		t.Errorf("add with null = %v", v)
	}
	if v := evalOK(t, bson.D("$subtract", bson.A("$missing", 1)), doc); v != nil {
		t.Errorf("subtract with null = %v", v)
	}
	if v := evalOK(t, bson.D("$abs", "$missing"), doc); v != nil {
		t.Errorf("abs of null = %v", v)
	}
	// Errors.
	bad := []any{
		bson.D("$divide", bson.A(1, 0)),
		bson.D("$mod", bson.A(1, 0)),
		bson.D("$divide", bson.A(1)),
		bson.D("$divide", bson.A("x", 1)),
		bson.D("$add", bson.A("x", 1)),
		bson.D("$sqrt", bson.A(-1)),
		bson.D("$abs", bson.A("x")),
		bson.D("$frobnicate", 1),
	}
	for _, expr := range bad {
		if _, err := evaluate(expr, doc); err == nil {
			t.Errorf("evaluate(%v) should fail", expr)
		}
	}
}

func TestEvaluateComparisonsAndLogic(t *testing.T) {
	doc := bson.D("a", 5, "b", 7, "s", "x")
	cases := []struct {
		expr any
		want any
	}{
		{bson.D("$eq", bson.A("$a", 5)), true},
		{bson.D("$ne", bson.A("$a", 5)), false},
		{bson.D("$gt", bson.A("$b", "$a")), true},
		{bson.D("$gte", bson.A("$a", "$a")), true},
		{bson.D("$lt", bson.A("$b", "$a")), false},
		{bson.D("$lte", bson.A("$a", 4)), false},
		{bson.D("$cmp", bson.A("$a", "$b")), int64(-1)},
		{bson.D("$and", bson.A(true, 1, "x")), true},
		{bson.D("$and", bson.A(true, 0)), false},
		{bson.D("$or", bson.A(false, 0, nil)), false},
		{bson.D("$or", bson.A(false, "$a")), true},
		{bson.D("$not", bson.A(false)), true},
		{bson.D("$not", bson.A("$a")), false},
	}
	for _, c := range cases {
		if got := evalOK(t, c.expr, doc); bson.Compare(got, bson.Normalize(c.want)) != 0 {
			t.Errorf("%v = %v, want %v", c.expr, got, c.want)
		}
	}
	if _, err := evaluate(bson.D("$eq", bson.A(1)), doc); err == nil {
		t.Errorf("$eq with one argument should fail")
	}
	if _, err := evaluate(bson.D("$not", bson.A(1, 2)), doc); err == nil {
		t.Errorf("$not with two arguments should fail")
	}
}

func TestEvaluateCond(t *testing.T) {
	// The shape used by Query 21 and Query 50: conditional sums.
	doc := bson.D("d_date", "2002-06-01", "qty", 40)
	arrayForm := bson.D("$cond", bson.A(
		bson.D("$lt", bson.A("$d_date", "2002-05-29")),
		"$qty",
		0,
	))
	if v := evalOK(t, arrayForm, doc); v != int64(0) {
		t.Fatalf("array-form cond = %v", v)
	}
	docForm := bson.D("$cond", bson.D(
		"if", bson.D("$gte", bson.A("$d_date", "2002-05-29")),
		"then", "$qty",
		"else", 0,
	))
	if v := evalOK(t, docForm, doc); v != int64(40) {
		t.Fatalf("doc-form cond = %v", v)
	}
	if _, err := evaluate(bson.D("$cond", bson.A(1, 2)), doc); err == nil {
		t.Fatalf("$cond with two elements should fail")
	}
	if _, err := evaluate(bson.D("$cond", bson.D("if", true, "then", 1)), doc); err == nil {
		t.Fatalf("$cond missing else should fail")
	}
	if _, err := evaluate(bson.D("$cond", 5), doc); err == nil {
		t.Fatalf("$cond with scalar should fail")
	}
}

func TestEvaluateStringAndArrayOperators(t *testing.T) {
	doc := bson.D("first", "Earl", "last", "Garrison", "tags", bson.A("a", "b"))
	if v := evalOK(t, bson.D("$concat", bson.A("$first", " ", "$last")), doc); v != "Earl Garrison" {
		t.Fatalf("$concat = %v", v)
	}
	if v := evalOK(t, bson.D("$concat", bson.A("$first", "$missing")), doc); v != nil {
		t.Fatalf("$concat with null = %v", v)
	}
	if _, err := evaluate(bson.D("$concat", bson.A("a", 5)), doc); err == nil {
		t.Fatalf("$concat with number should fail")
	}
	if v := evalOK(t, bson.D("$toUpper", "$first"), doc); v != "EARL" {
		t.Fatalf("$toUpper = %v", v)
	}
	if v := evalOK(t, bson.D("$toLower", "$first"), doc); v != "earl" {
		t.Fatalf("$toLower = %v", v)
	}
	if v := evalOK(t, bson.D("$size", "$tags"), doc); v != int64(2) {
		t.Fatalf("$size = %v", v)
	}
	if _, err := evaluate(bson.D("$size", "$first"), doc); err == nil {
		t.Fatalf("$size of string should fail")
	}
	if v := evalOK(t, bson.D("$ifNull", bson.A("$missing", "fallback")), doc); v != "fallback" {
		t.Fatalf("$ifNull = %v", v)
	}
	if v := evalOK(t, bson.D("$ifNull", bson.A("$first", "fallback")), doc); v != "Earl" {
		t.Fatalf("$ifNull non-null = %v", v)
	}
	if _, err := evaluate(bson.D("$ifNull", bson.A(1)), doc); err == nil {
		t.Fatalf("$ifNull with one argument should fail")
	}
	if v := evalOK(t, bson.D("$in", bson.A("b", "$tags")), doc); v != true {
		t.Fatalf("$in = %v", v)
	}
	if v := evalOK(t, bson.D("$in", bson.A("z", "$tags")), doc); v != false {
		t.Fatalf("$in miss = %v", v)
	}
	if _, err := evaluate(bson.D("$in", bson.A("z", "$first")), doc); err == nil {
		t.Fatalf("$in with non-array should fail")
	}
}

func TestEvaluateErrorPropagationThroughContainers(t *testing.T) {
	doc := bson.NewDoc(0)
	if _, err := evaluate(bson.D("x", bson.D("$divide", bson.A(1, 0))), doc); err == nil {
		t.Fatalf("error inside document literal should propagate")
	}
	if _, err := evaluate(bson.A(bson.D("$divide", bson.A(1, 0))), doc); err == nil {
		t.Fatalf("error inside array literal should propagate")
	}
	if _, err := evaluate(bson.D("$and", bson.A(bson.D("$bogus", 1))), doc); err == nil {
		t.Fatalf("error inside logical args should propagate")
	}
	if _, err := evaluate(bson.D("$cond", bson.A(bson.D("$bogus", 1), 1, 2)), doc); err == nil {
		t.Fatalf("error inside cond should propagate")
	}
}
