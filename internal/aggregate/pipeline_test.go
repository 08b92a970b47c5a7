package aggregate

import (
	"fmt"
	"math/rand"
	"testing"

	"docstore/internal/bson"
)

// salesDocs builds a small store_sales-like dataset for pipeline tests.
func salesDocs() []*bson.Doc {
	var docs []*bson.Doc
	items := []string{"item_a", "item_b", "item_c"}
	for i := 0; i < 30; i++ {
		docs = append(docs, bson.D(
			bson.IDKey, i,
			"i_item_id", items[i%3],
			"ss_quantity", i%10,
			"ss_list_price", float64(i%5)+0.5,
			"year", 2000+i%2,
		))
	}
	return docs
}

func runPipeline(t *testing.T, stages []*bson.Doc, docs []*bson.Doc, env Env) []*bson.Doc {
	t.Helper()
	p, err := Parse(stages)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out, err := p.Run(docs, env)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out
}

func TestPipelineMatchGroupSortProject(t *testing.T) {
	// The structural skeleton of the thesis' Query 7 (Appendix B).
	stages := []*bson.Doc{
		bson.D("$match", bson.D("year", 2001)),
		bson.D("$group", bson.D(
			bson.IDKey, "$i_item_id",
			"agg1", bson.D("$avg", "$ss_quantity"),
			"agg2", bson.D("$avg", "$ss_list_price"),
			"cnt", bson.D("$sum", 1),
		)),
		bson.D("$sort", bson.D(bson.IDKey, 1)),
		bson.D("$project", bson.D(
			"i_item_id", "$_id",
			"agg1", 1,
			"agg2", 1,
			"cnt", 1,
		)),
	}
	out := runPipeline(t, stages, salesDocs(), nil)
	if len(out) != 3 {
		t.Fatalf("got %d groups, want 3", len(out))
	}
	// Sorted by _id ascending: item_a, item_b, item_c.
	first := out[0]
	if v, _ := first.Get("i_item_id"); v != "item_a" {
		t.Fatalf("first group = %s", first)
	}
	// Every output group has the four projected fields.
	for _, d := range out {
		for _, k := range []string{"i_item_id", "agg1", "agg2", "cnt"} {
			if !d.Has(k) {
				t.Fatalf("group %s missing %s", d, k)
			}
		}
	}
	// Counts: year 2001 selects odd i (15 docs), one third per item.
	for _, d := range out {
		if v, _ := d.Get("cnt"); v != int64(5) {
			t.Fatalf("group count = %v", v)
		}
	}
}

func TestGroupAccumulators(t *testing.T) {
	docs := []*bson.Doc{
		bson.D("k", "a", "v", 1, "s", "x"),
		bson.D("k", "a", "v", 5, "s", "y"),
		bson.D("k", "b", "v", 10, "s", "z"),
		bson.D("k", "a", "v", 3, "s", "x"),
	}
	stages := []*bson.Doc{
		bson.D("$group", bson.D(
			bson.IDKey, "$k",
			"total", bson.D("$sum", "$v"),
			"avg", bson.D("$avg", "$v"),
			"lo", bson.D("$min", "$v"),
			"hi", bson.D("$max", "$v"),
			"first", bson.D("$first", "$v"),
			"last", bson.D("$last", "$v"),
			"all", bson.D("$push", "$s"),
			"set", bson.D("$addToSet", "$s"),
			"n", bson.D("$count", bson.NewDoc(0)),
		)),
		bson.D("$sort", bson.D(bson.IDKey, 1)),
	}
	out := runPipeline(t, stages, docs, nil)
	if len(out) != 2 {
		t.Fatalf("groups = %d", len(out))
	}
	a := out[0]
	checks := map[string]any{
		"total": int64(9), "avg": 3.0, "lo": int64(1), "hi": int64(5),
		"first": int64(1), "last": int64(3), "n": int64(3),
	}
	for k, want := range checks {
		if got, _ := a.Get(k); bson.Compare(got, bson.Normalize(want)) != 0 {
			t.Errorf("group a %s = %v, want %v", k, got, want)
		}
	}
	if all, _ := a.Get("all"); len(all.([]any)) != 3 {
		t.Errorf("push = %v", all)
	}
	if set, _ := a.Get("set"); len(set.([]any)) != 2 {
		t.Errorf("addToSet = %v", set)
	}
	// $sum of a constant counts documents (the "$sum: 1" idiom).
	out = runPipeline(t, []*bson.Doc{
		bson.D("$group", bson.D(bson.IDKey, nil, "n", bson.D("$sum", 1))),
	}, docs, nil)
	if v, _ := out[0].Get("n"); v != int64(4) {
		t.Fatalf("sum 1 = %v", v)
	}
	// Mixed int/float sums become float.
	out = runPipeline(t, []*bson.Doc{
		bson.D("$group", bson.D(bson.IDKey, nil, "s", bson.D("$sum", "$v"))),
	}, []*bson.Doc{bson.D("v", 1), bson.D("v", 2.5)}, nil)
	if v, _ := out[0].Get("s"); v != 3.5 {
		t.Fatalf("mixed sum = %v", v)
	}
	// Non-numeric values are ignored by $sum and $avg.
	out = runPipeline(t, []*bson.Doc{
		bson.D("$group", bson.D(bson.IDKey, nil, "s", bson.D("$sum", "$v"), "a", bson.D("$avg", "$v"))),
	}, []*bson.Doc{bson.D("v", 1), bson.D("v", "oops"), bson.D("v", 3)}, nil)
	if v, _ := out[0].Get("s"); v != int64(4) {
		t.Fatalf("sum ignoring non-numeric = %v", v)
	}
	if v, _ := out[0].Get("a"); v != 2.0 {
		t.Fatalf("avg ignoring non-numeric = %v", v)
	}
	// Empty input produces no groups; avg over zero numeric values is null.
	out = runPipeline(t, []*bson.Doc{
		bson.D("$group", bson.D(bson.IDKey, "$k", "a", bson.D("$avg", "$v"))),
	}, nil, nil)
	if len(out) != 0 {
		t.Fatalf("empty input groups = %d", len(out))
	}
}

func TestGroupByCompositeKey(t *testing.T) {
	// Query 21 groups by {warehouse, item}; Query 46 groups by a 7-field key.
	docs := []*bson.Doc{
		bson.D("w", "W1", "i", "A", "q", 1),
		bson.D("w", "W1", "i", "A", "q", 2),
		bson.D("w", "W1", "i", "B", "q", 4),
		bson.D("w", "W2", "i", "A", "q", 8),
	}
	out := runPipeline(t, []*bson.Doc{
		bson.D("$group", bson.D(
			bson.IDKey, bson.D("w_name", "$w", "i_id", "$i"),
			"total", bson.D("$sum", "$q"),
		)),
		bson.D("$sort", bson.D("_id.w_name", 1, "_id.i_id", 1)),
	}, docs, nil)
	if len(out) != 3 {
		t.Fatalf("groups = %d", len(out))
	}
	if v, _ := out[0].GetPath("_id.w_name"); v != "W1" {
		t.Fatalf("first group = %s", out[0])
	}
	if v, _ := out[0].Get("total"); v != int64(3) {
		t.Fatalf("W1/A total = %v", v)
	}
}

// TestGroupKeepsLargeIntegersApart groups by the int64s 2^53 and 2^53+1,
// which one float64 holds: they are two buckets, sorted in order, while
// 2^53 and the float64 2^53 are one.
func TestGroupKeepsLargeIntegersApart(t *testing.T) {
	const two53 = int64(1) << 53
	docs := []*bson.Doc{
		bson.D("k", two53+1, "q", 1),
		bson.D("k", two53, "q", 2),
		bson.D("k", float64(two53), "q", 4),
		bson.D("k", two53+1, "q", 8),
	}
	out := runPipeline(t, []*bson.Doc{
		bson.D("$group", bson.D(bson.IDKey, "$k", "total", bson.D("$sum", "$q"))),
		bson.D("$sort", bson.D(bson.IDKey, 1)),
	}, docs, nil)
	if len(out) != 2 {
		t.Fatalf("%d groups, want 2: %v", len(out), out)
	}
	for i, want := range []int64{6, 9} {
		if v, _ := out[i].Get("total"); v != want {
			t.Fatalf("group %d = %s, want total %d", i, out[i].ToJSON(), want)
		}
	}
	if id, _ := out[1].Get(bson.IDKey); id != two53+1 {
		t.Fatalf("the second group's _id is %v, want %d", id, two53+1)
	}
}

func TestProjectComputedFieldsAndIDExclusion(t *testing.T) {
	docs := []*bson.Doc{bson.D(bson.IDKey, 1, "a", 2, "b", 3, "junk", "x")}
	out := runPipeline(t, []*bson.Doc{
		bson.D("$project", bson.D(
			bson.IDKey, 0,
			"a", 1,
			"sum", bson.D("$add", bson.A("$a", "$b")),
			"renamed", "$b",
		)),
	}, docs, nil)
	d := out[0]
	if d.Has(bson.IDKey) || d.Has("junk") || d.Has("b") {
		t.Fatalf("projection output = %s", d)
	}
	if v, _ := d.Get("sum"); v != int64(5) {
		t.Fatalf("sum = %v", v)
	}
	if v, _ := d.Get("renamed"); v != int64(3) {
		t.Fatalf("renamed = %v", v)
	}
	// Without explicit exclusion _id is kept and leads the document.
	out = runPipeline(t, []*bson.Doc{bson.D("$project", bson.D("a", 1))}, docs, nil)
	if out[0].Keys()[0] != bson.IDKey {
		t.Fatalf("_id should lead: %v", out[0].Keys())
	}
	// Computed _id replaces the original.
	out = runPipeline(t, []*bson.Doc{bson.D("$project", bson.D(bson.IDKey, "$a"))}, docs, nil)
	if v, _ := out[0].Get(bson.IDKey); v != int64(2) {
		t.Fatalf("computed _id = %v", v)
	}
	// Dotted inclusion paths.
	nested := []*bson.Doc{bson.D(bson.IDKey, 1, "sub", bson.D("x", 5, "y", 6))}
	out = runPipeline(t, []*bson.Doc{bson.D("$project", bson.D("sub.x", 1))}, nested, nil)
	if v, ok := out[0].GetPath("sub.x"); !ok || v != int64(5) {
		t.Fatalf("dotted projection = %s", out[0])
	}
	if _, ok := out[0].GetPath("sub.y"); ok {
		t.Fatalf("sub.y should be excluded")
	}
}

func TestAddFieldsStage(t *testing.T) {
	docs := []*bson.Doc{bson.D(bson.IDKey, 1, "a", 2)}
	out := runPipeline(t, []*bson.Doc{
		bson.D("$addFields", bson.D("double", bson.D("$multiply", bson.A("$a", 2)))),
	}, docs, nil)
	if v, _ := out[0].Get("double"); v != int64(4) {
		t.Fatalf("addFields = %s", out[0])
	}
	if !out[0].Has("a") {
		t.Fatalf("$addFields should preserve existing fields")
	}
	// Original document untouched (clone semantics).
	if docs[0].Has("double") {
		t.Fatalf("$addFields mutated its input")
	}
	// $set is an alias.
	out = runPipeline(t, []*bson.Doc{bson.D("$set", bson.D("flag", true))}, docs, nil)
	if v, _ := out[0].Get("flag"); v != true {
		t.Fatalf("$set = %s", out[0])
	}
}

func TestLimitSkipCountUnwind(t *testing.T) {
	docs := salesDocs()
	out := runPipeline(t, []*bson.Doc{bson.D("$limit", 7)}, docs, nil)
	if len(out) != 7 {
		t.Fatalf("limit = %d", len(out))
	}
	out = runPipeline(t, []*bson.Doc{bson.D("$skip", 25)}, docs, nil)
	if len(out) != 5 {
		t.Fatalf("skip = %d", len(out))
	}
	out = runPipeline(t, []*bson.Doc{bson.D("$skip", 100)}, docs, nil)
	if len(out) != 0 {
		t.Fatalf("skip past end = %d", len(out))
	}
	out = runPipeline(t, []*bson.Doc{bson.D("$count", "total")}, docs, nil)
	if v, _ := out[0].Get("total"); v != int64(30) {
		t.Fatalf("count = %v", v)
	}
	// $unwind splits array elements into separate documents.
	nested := []*bson.Doc{
		bson.D(bson.IDKey, 1, "books", bson.A(bson.D("t", "x"), bson.D("t", "y"))),
		bson.D(bson.IDKey, 2, "books", bson.A()),
		bson.D(bson.IDKey, 3),
		bson.D(bson.IDKey, 4, "books", "scalar"),
	}
	out = runPipeline(t, []*bson.Doc{bson.D("$unwind", "$books")}, nested, nil)
	if len(out) != 3 { // 2 from doc 1, 0 from docs 2/3, 1 from doc 4
		t.Fatalf("unwind = %d docs", len(out))
	}
	out = runPipeline(t, []*bson.Doc{
		bson.D("$unwind", bson.D("path", "$books", "preserveNullAndEmptyArrays", true)),
	}, nested, nil)
	if len(out) != 5 {
		t.Fatalf("unwind preserve = %d docs", len(out))
	}
}

func TestOutStageWritesToEnv(t *testing.T) {
	env := NewSliceEnv()
	docs := salesDocs()
	stages := []*bson.Doc{
		bson.D("$match", bson.D("year", 2001)),
		bson.D("$out", "query7_output"),
	}
	p := MustParse(stages)
	if p.OutCollection() != "query7_output" {
		t.Fatalf("OutCollection = %q", p.OutCollection())
	}
	out, err := p.Run(docs, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Collections["query7_output"]) != len(out) {
		t.Fatalf("$out wrote %d docs, returned %d", len(env.Collections["query7_output"]), len(out))
	}
	// Without an Env, $out fails.
	if _, err := p.Run(docs, nil); err == nil {
		t.Fatalf("$out without env should fail")
	}
}

func TestLookupStage(t *testing.T) {
	env := NewSliceEnv()
	env.Collections["item"] = []*bson.Doc{
		bson.D("i_item_sk", 1, "i_item_id", "AAA"),
		bson.D("i_item_sk", 2, "i_item_id", "BBB"),
	}
	sales := []*bson.Doc{
		bson.D(bson.IDKey, 10, "ss_item_sk", 1),
		bson.D(bson.IDKey, 11, "ss_item_sk", 2),
		bson.D(bson.IDKey, 12, "ss_item_sk", 3),
	}
	out := runPipeline(t, []*bson.Doc{
		bson.D("$lookup", bson.D(
			"from", "item",
			"localField", "ss_item_sk",
			"foreignField", "i_item_sk",
			"as", "item_docs",
		)),
	}, sales, env)
	v, _ := out[0].Get("item_docs")
	if len(v.([]any)) != 1 {
		t.Fatalf("lookup join = %v", v)
	}
	v, _ = out[2].Get("item_docs")
	if len(v.([]any)) != 0 {
		t.Fatalf("unmatched lookup = %v", v)
	}
	// Missing foreign collection errors.
	p := MustParse([]*bson.Doc{bson.D("$lookup", bson.D(
		"from", "missing", "localField", "a", "foreignField", "b", "as", "c"))})
	if _, err := p.Run(sales, env); err == nil {
		t.Fatalf("lookup against missing collection should fail")
	}
	if _, err := p.Run(sales, nil); err == nil {
		t.Fatalf("lookup without env should fail")
	}
}

func TestPipelineSplit(t *testing.T) {
	p := MustParse([]*bson.Doc{
		bson.D("$match", bson.D("a", 1)),
		bson.D("$project", bson.D("a", 1)),
		bson.D("$group", bson.D(bson.IDKey, "$a", "n", bson.D("$sum", 1))),
		bson.D("$sort", bson.D("n", -1)),
	})
	shard, merge := p.Split()
	if got := shard.StageNames(); len(got) != 2 || got[0] != "$match" || got[1] != "$project" {
		t.Fatalf("shard stages = %v", got)
	}
	if got := merge.StageNames(); len(got) != 2 || got[0] != "$group" {
		t.Fatalf("merge stages = %v", got)
	}
	// A purely local pipeline has an empty merge part.
	p = MustParse([]*bson.Doc{bson.D("$match", bson.D("a", 1))})
	shard, merge = p.Split()
	if shard.Len() != 1 || merge.Len() != 0 {
		t.Fatalf("split of local pipeline: %d/%d", shard.Len(), merge.Len())
	}
	// A pipeline that begins with $group pushes nothing down.
	p = MustParse([]*bson.Doc{bson.D("$group", bson.D(bson.IDKey, nil, "n", bson.D("$sum", 1)))})
	shard, merge = p.Split()
	if shard.Len() != 0 || merge.Len() != 1 {
		t.Fatalf("split of group-first pipeline: %d/%d", shard.Len(), merge.Len())
	}
}

func TestParseErrors(t *testing.T) {
	bad := [][]*bson.Doc{
		{bson.D("$match", bson.D("a", 1), "$sort", bson.D("a", 1))}, // two operators in one stage
		{bson.D("$match", 5)},
		{bson.D("$match", bson.D("$bogus", 1))},
		{bson.D("$project", 5)},
		{bson.D("$project", bson.NewDoc(0))},
		{bson.D("$group", 5)},
		{bson.D("$group", bson.D("x", bson.D("$sum", 1)))},  // no _id
		{bson.D("$group", bson.D(bson.IDKey, nil, "x", 5))}, // accumulator not a doc
		{bson.D("$group", bson.D(bson.IDKey, nil, "x", bson.D("$bogus", 1)))},
		{bson.D("$sort", bson.D("a", 0))},
		{bson.D("$sort", "x")},
		{bson.D("$limit", -1)},
		{bson.D("$limit", "x")},
		{bson.D("$skip", -2)},
		{bson.D("$skip", bson.D("x", 1))},
		{bson.D("$unwind", "noprefix")},
		{bson.D("$unwind", 5)},
		{bson.D("$unwind", bson.D("path", 5))},
		{bson.D("$count", 5)},
		{bson.D("$count", "")},
		{bson.D("$out", 5)},
		{bson.D("$out", "x"), bson.D("$match", bson.D("a", 1))}, // $out not last
		{bson.D("$lookup", 5)},
		{bson.D("$lookup", bson.D("from", "x"))},
		{bson.D("$lookup", bson.D("from", "x", "localField", "a"))},
		{bson.D("$lookup", bson.D("from", "x", "localField", "a", "foreignField", "b"))},
		{bson.D("$addFields", 5)},
		{bson.D("$frobnicate", bson.D("a", 1))},
	}
	for _, stages := range bad {
		if _, err := Parse(stages); err == nil {
			t.Errorf("Parse(%v) should fail", stages)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustParse([]*bson.Doc{bson.D("$bogus", 1)})
}

func TestRunPropagatesStageErrors(t *testing.T) {
	p := MustParse([]*bson.Doc{
		bson.D("$project", bson.D("bad", bson.D("$divide", bson.A(1, 0)))),
	})
	if _, err := p.Run(salesDocs(), nil); err == nil {
		t.Fatalf("stage error should propagate")
	}
}

func TestSliceEnv(t *testing.T) {
	env := &SliceEnv{}
	if err := env.WriteCollection("a", []*bson.Doc{bson.D("x", 1)}); err != nil {
		t.Fatal(err)
	}
	docs, err := env.ReadCollection("a")
	if err != nil || len(docs) != 1 {
		t.Fatalf("ReadCollection: %v %v", docs, err)
	}
	if _, err := env.ReadCollection("missing"); err == nil {
		t.Fatalf("missing collection should error")
	}
}

// TestGroupSumMatchesDirectComputationProperty checks $group/$sum against a
// direct fold for random inputs.
func TestGroupSumMatchesDirectComputationProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		docs := make([]*bson.Doc, n)
		direct := map[string]int64{}
		for i := 0; i < n; i++ {
			k := string(rune('a' + r.Intn(5)))
			v := int64(r.Intn(100))
			docs[i] = bson.D("k", k, "v", v)
			direct[k] += v
		}
		out := runPipeline(t, []*bson.Doc{
			bson.D("$group", bson.D(bson.IDKey, "$k", "total", bson.D("$sum", "$v"))),
		}, docs, nil)
		if len(out) != len(direct) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(out), len(direct))
		}
		for _, g := range out {
			id, _ := g.Get(bson.IDKey)
			total, _ := g.Get("total")
			if total != direct[id.(string)] {
				t.Fatalf("trial %d: group %v total %v, want %v", trial, id, total, direct[id.(string)])
			}
		}
	}
}

// TestStagesLeaveInputUnwritten: $addFields, $unwind and $lookup copy only
// the field array of a row and the nested documents on the paths they write, so the rows they read — stored
// documents, which other documents and pinned versions share — and the
// foreign rows $lookup joins are never written, however deep the path. The
// rows they emit carry the writes.
func TestStagesLeaveInputUnwritten(t *testing.T) {
	input := func() []*bson.Doc {
		return []*bson.Doc{
			bson.D(bson.IDKey, 1, "k", 1, "a", bson.D("b", bson.D("c", 1), "arr", bson.A(1, 2), "x", "gone")),
			bson.D(bson.IDKey, 2, "k", 2, "a", bson.D("b", bson.D("c", 2), "arr", bson.A(3), "x", "gone")),
		}
	}
	pipelines := map[string][]*bson.Doc{
		"$addFields": {bson.D("$addFields", bson.D("a.b.c", "set", "a.b.d", bson.D("$add", bson.A("$k", 1))))},
		"$unwind":    {bson.D("$unwind", "$a.arr")},
		"$lookup":    {bson.D("$lookup", bson.D("from", "dims", "localField", "k", "foreignField", "k", "as", "a.b.joined"))},
		"chained": {
			bson.D("$lookup", bson.D("from", "dims", "localField", "k", "foreignField", "k", "as", "a.joined")),
			bson.D("$unwind", "$a.joined"),
			bson.D("$addFields", bson.D("a.joined.name", "overwritten", "a.joined.attrs.deep", false)),
		},
	}
	for name, stages := range pipelines {
		p := MustParse(stages)
		for _, run := range []string{"Run", "RunIter"} {
			docs := input()
			env := &SliceEnv{Collections: map[string][]*bson.Doc{
				"dims": {bson.D(bson.IDKey, 10, "k", 1, "name", "dim", "attrs", bson.D("deep", true))},
			}}
			want := fmt.Sprint(docs, env.Collections["dims"])
			var out []*bson.Doc
			var err error
			if run == "Run" {
				out, err = p.Run(docs, env)
			} else {
				out, err = Drain(p.RunIter(FromSlice(docs), env))
			}
			if err != nil {
				t.Fatalf("%s (%s): %v", name, run, err)
			}
			if got := fmt.Sprint(docs, env.Collections["dims"]); got != want {
				t.Errorf("%s (%s) wrote its input:\n got: %s\nwant: %s", name, run, got, want)
			}
			if len(out) == 0 || fmt.Sprint(out) == fmt.Sprint(docs) {
				t.Errorf("%s (%s) emitted %v", name, run, out)
			}
		}
	}
}
