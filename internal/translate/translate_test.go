package translate

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/denorm"
	"docstore/internal/driver"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/storage"
)

// buildMiniRetail loads a tiny normalized retail dataset: 4 items, 3 dates,
// and 24 sales.
func buildMiniRetail(t *testing.T) driver.Store {
	t.Helper()
	store := driver.NewStandalone(mongod.NewServer(mongod.Options{}).Database("mini"))
	for i := 1; i <= 4; i++ {
		if _, err := store.Insert("item", bson.D("i_item_sk", i, "i_item_id", string(rune('A'+i-1)), "i_current_price", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		if _, err := store.Insert("date_dim", bson.D("d_date_sk", i, "d_year", 1999+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 24; i++ {
		if _, err := store.Insert("store_sales", bson.D(
			"ss_item_sk", 1+i%4,
			"ss_sold_date_sk", 1+i%3,
			"ss_quantity", i,
		)); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func plan() Plan {
	return Plan{
		Name: "mini",
		Fact: "store_sales",
		Filters: []DimFilter{
			{Dimension: "date_dim", FKField: "ss_sold_date_sk", PKField: "d_date_sk", Where: bson.D("d_year", 2001)},
			{Dimension: "item", FKField: "ss_item_sk", PKField: "i_item_sk", Where: bson.D("i_current_price", bson.D("$lte", 2.0))},
		},
		Embed: []denorm.Embedding{
			{Dimension: "item", FKField: "ss_item_sk", PKField: "i_item_sk"},
		},
		Aggregation: []*bson.Doc{
			bson.D("$group", bson.D(bson.IDKey, "$ss_item_sk.i_item_id", "total", bson.D("$sum", "$ss_quantity"))),
			bson.D("$sort", bson.D(bson.IDKey, 1)),
		},
	}
}

func TestRunFollowsFigure48Steps(t *testing.T) {
	store := buildMiniRetail(t)
	res, err := Run(store, plan())
	if err != nil {
		t.Fatal(err)
	}
	// Year 2001 is date_sk 2 (8 sales); price <= 2.0 keeps items 1 and 2
	// (half of those): 4 documents survive the semi-join, two item groups.
	if res.IntermediateDocs != 4 {
		t.Fatalf("intermediate docs = %d, want 4", res.IntermediateDocs)
	}
	if len(res.Docs) != 2 {
		t.Fatalf("result groups = %d, want 2", len(res.Docs))
	}
	if id, _ := res.Docs[0].Get(bson.IDKey); id != "A" {
		t.Fatalf("first group = %s", res.Docs[0])
	}
	if res.Total <= 0 || res.Aggregate <= 0 || res.SemiJoin <= 0 || res.FilterDims <= 0 {
		t.Fatalf("phase durations not recorded: %+v", res)
	}
	// The output collection was materialized via $out.
	n, err := store.Count("mini_output", nil)
	if err != nil || n != 2 {
		t.Fatalf("output collection has %d docs, %v", n, err)
	}
	// The intermediate collection was cleaned up by default.
	if n, _ := store.Count("store_sales_mini_intermediate", nil); n != 0 {
		t.Fatalf("intermediate collection not dropped (%d docs)", n)
	}
	// The source fact collection is untouched (still scalar references).
	sales, _ := store.Find("store_sales", bson.D("ss_item_sk", 1), storage.FindOptions{})
	if len(sales) != 6 {
		t.Fatalf("source fact collection mutated: %d docs for item 1", len(sales))
	}
}

func TestRunKeepIntermediateAndCustomNames(t *testing.T) {
	store := buildMiniRetail(t)
	p := plan()
	p.Intermediate = "scratch"
	p.Output = "final"
	p.KeepIntermediate = true
	res, err := Run(store, p)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := store.Count("scratch", nil); n != res.IntermediateDocs {
		t.Fatalf("intermediate kept %d docs, want %d", n, res.IntermediateDocs)
	}
	if n, _ := store.Count("final", nil); n != len(res.Docs) {
		t.Fatalf("output has %d docs", n)
	}
}

func TestRunWithNilWhereSkipsSemiJoinForThatDimension(t *testing.T) {
	store := buildMiniRetail(t)
	p := plan()
	// Remove the item filter: only the year filter narrows the fact.
	p.Filters[1].Where = nil
	res, err := Run(store, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntermediateDocs != 8 {
		t.Fatalf("intermediate docs = %d, want 8", res.IntermediateDocs)
	}
	if len(res.Docs) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Docs))
	}
}

func TestRunEmptySemiJoin(t *testing.T) {
	store := buildMiniRetail(t)
	p := plan()
	p.Filters[0].Where = bson.D("d_year", 1900) // matches nothing
	res, err := Run(store, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntermediateDocs != 0 || len(res.Docs) != 0 {
		t.Fatalf("empty filter should produce nothing: %+v", res)
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	store := buildMiniRetail(t)
	intermediateLeft := func() int {
		n, _ := store.Count("store_sales_mini_intermediate", nil)
		return n
	}
	p := plan()
	p.Filters[0].Where = bson.D("$bogus", 1)
	if _, err := Run(store, p); err == nil {
		t.Fatalf("bad dimension filter should fail")
	}
	// The two failures below happen after the intermediate collection was
	// written; it must not outlive the run.
	p = plan()
	p.Aggregation = []*bson.Doc{bson.D("$bogus", 1)}
	if _, err := Run(store, p); err == nil {
		t.Fatalf("bad aggregation should fail")
	}
	if n := intermediateLeft(); n != 0 {
		t.Fatalf("a failed aggregation left %d documents in the intermediate collection", n)
	}
	failing := &countingStore{Store: store, failBulk: errors.New("injected bulk failure")}
	if _, err := Run(failing, plan()); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("failed embedding: %v, want the injected error", err)
	}
	if n := intermediateLeft(); n != 0 {
		t.Fatalf("a failed embedding left %d documents in the intermediate collection", n)
	}
	// KeepIntermediate keeps it, as asked, on the error path too.
	p = plan()
	p.KeepIntermediate = true
	p.Aggregation = []*bson.Doc{bson.D("$bogus", 1)}
	if _, err := Run(store, p); err == nil {
		t.Fatalf("bad aggregation should fail")
	}
	if n := intermediateLeft(); n != 4 {
		t.Fatalf("KeepIntermediate kept %d documents after a failed run, want 4", n)
	}
}

// countingStore counts the calls Run makes into the deployment (each is a
// round trip to a server or router) and can fail bulk writes.
type countingStore struct {
	driver.Store
	calls    int
	failBulk error
}

func (s *countingStore) Find(coll string, filter *bson.Doc, opts storage.FindOptions) ([]*bson.Doc, error) {
	s.calls++
	return s.Store.Find(coll, filter, opts)
}

func (s *countingStore) InsertMany(coll string, docs []*bson.Doc) ([]any, error) {
	s.calls++
	return s.Store.InsertMany(coll, docs)
}

func (s *countingStore) BulkWrite(coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	s.calls++
	if s.failBulk != nil {
		return storage.BulkResult{DurabilityErr: s.failBulk}
	}
	return s.Store.BulkWrite(coll, ops, opts)
}

func (s *countingStore) Update(coll string, spec query.UpdateSpec) (storage.UpdateResult, error) {
	s.calls++
	return s.Store.Update(coll, spec)
}

func (s *countingStore) Aggregate(coll string, stages []*bson.Doc) ([]*bson.Doc, error) {
	s.calls++
	return s.Store.Aggregate(coll, stages)
}

func (s *countingStore) DropCollection(coll string) bool {
	s.calls++
	return s.Store.DropCollection(coll)
}

// TestRunCallsDoNotGrowWithDimensionSize: a plan costs a fixed number of
// store calls — its filters, the semi-join, three per embedding, the
// aggregation and the intermediate collection's housekeeping — whether the
// embedded dimension has four rows or four thousand.
func TestRunCallsDoNotGrowWithDimensionSize(t *testing.T) {
	var calls []int
	var groups [][]*bson.Doc
	for _, extraItems := range []int{0, 40, 4000} {
		store := buildMiniRetail(t)
		extra := make([]*bson.Doc, extraItems)
		for i := range extra {
			// Priced out of the filter and referenced by no sale.
			extra[i] = bson.D("i_item_sk", 100+i, "i_item_id", "extra", "i_current_price", 99.0)
		}
		if len(extra) > 0 {
			if _, err := store.InsertMany("item", extra); err != nil {
				t.Fatal(err)
			}
		}
		counting := &countingStore{Store: store}
		res, err := Run(counting, plan())
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, counting.calls)
		groups = append(groups, res.Docs)
	}
	// 2 filters + semi-join + drop + insert + (keys, find, bulk) + aggregate + drop.
	if calls[0] != 10 {
		t.Fatalf("the plan took %d store calls, want 10", calls[0])
	}
	for i := range calls {
		if calls[i] != calls[0] {
			t.Fatalf("store calls grew with the dimension: %v", calls)
		}
		if len(groups[i]) != len(groups[0]) {
			t.Fatalf("results differ with the dimension's size: %d vs %d groups", len(groups[i]), len(groups[0]))
		}
		for j := range groups[i] {
			if !groups[i][j].Equal(groups[0][j]) {
				t.Fatalf("group %d differs with the dimension's size: %s vs %s", j, groups[i][j], groups[0][j])
			}
		}
	}
}

// TestRunEmbedsNestedDimensionAfterItsParent: the embeddings run in the
// plan's order, so a dotted one — a brand inside the embedded item — finds
// the document its path reaches into. KeepIntermediate lets the test read the
// embedded documents back.
func TestRunEmbedsNestedDimensionAfterItsParent(t *testing.T) {
	store := buildMiniRetail(t)
	for b := 1; b <= 2; b++ {
		if _, err := store.Insert("brand", bson.D("b_sk", b, "b_name", fmt.Sprintf("brand-%d", b))); err != nil {
			t.Fatal(err)
		}
	}
	// Items 1 and 2 are brand 1, items 3 and 4 brand 2.
	for i := 1; i <= 4; i++ {
		if _, err := store.Update("item", query.UpdateSpec{Query: bson.D("i_item_sk", i), Update: bson.D("$set", bson.D("i_brand_sk", (i+1)/2))}); err != nil {
			t.Fatal(err)
		}
	}
	p := plan()
	p.Filters = p.Filters[:1] // year 2001 only: 8 sales, two per item
	p.Embed = []denorm.Embedding{
		{Dimension: "date_dim", FKField: "ss_sold_date_sk", PKField: "d_date_sk"},
		{Dimension: "item", FKField: "ss_item_sk", PKField: "i_item_sk"},
		{Dimension: "brand", FKField: "ss_item_sk.i_brand_sk", PKField: "b_sk"},
	}
	p.Aggregation = []*bson.Doc{
		bson.D("$group", bson.D(bson.IDKey, "$ss_item_sk.i_brand_sk.b_name", "sales", bson.D("$sum", 1))),
		bson.D("$sort", bson.D(bson.IDKey, 1)),
	}
	p.KeepIntermediate = true
	res, err := Run(store, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 2 {
		t.Fatalf("groups = %v, want one per brand", res.Docs)
	}
	for i, want := range []string{"brand-1", "brand-2"} {
		if id, _ := res.Docs[i].Get(bson.IDKey); id != want {
			t.Fatalf("group %d = %s, want %s", i, res.Docs[i], want)
		}
		if n, _ := res.Docs[i].Get("sales"); n != int64(4) {
			t.Fatalf("group %d = %s, want 4 sales", i, res.Docs[i])
		}
	}
	embedded, err := store.Find("store_sales_mini_intermediate", nil, storage.FindOptions{})
	if err != nil || len(embedded) != 8 {
		t.Fatalf("intermediate: %d documents, %v", len(embedded), err)
	}
	for _, d := range embedded {
		if y, ok := d.GetPath("ss_sold_date_sk.d_year"); !ok || y != int64(2001) {
			t.Fatalf("date_dim not embedded: %s", d)
		}
	}
}
