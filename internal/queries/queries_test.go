package queries

import (
	"errors"
	"strings"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/denorm"
	"docstore/internal/driver"
	"docstore/internal/migrate"
	"docstore/internal/mongod"
	"docstore/internal/storage"
	"docstore/internal/tpcds"
)

func TestCatalogAndFeaturesMatchTable35(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("expected 4 queries, got %d", len(all))
	}
	wantIDs := []int{7, 21, 46, 50}
	wantTables := []int{5, 4, 6, 5}
	wantAggs := []int{4, 2, 2, 5}
	wantGroup := []int{1, 1, 1, 1}
	wantCond := []int{0, 3, 0, 5}
	wantSub := []int{0, 0, 1, 0}
	for i, q := range all {
		if q.ID != wantIDs[i] {
			t.Fatalf("query order = %v", q.ID)
		}
		f := q.Features
		if f.Tables != wantTables[i] || f.AggregationFunctions != wantAggs[i] ||
			f.GroupOrderByClauses != wantGroup[i] || f.ConditionalConstructs != wantCond[i] ||
			f.CorrelatedSubqueries != wantSub[i] {
			t.Errorf("query %d features = %+v", q.ID, f)
		}
		if q.SQL == "" || q.Fact == "" || q.OutputCollection == "" || q.Name == "" {
			t.Errorf("query %d metadata incomplete", q.ID)
		}
		// Each query meets at least 3 of the selection criteria of §3.4.
		met := 0
		if f.Tables >= 4 {
			met++
		}
		if f.AggregationFunctions >= 1 {
			met++
		}
		if f.GroupOrderByClauses >= 1 {
			met++
		}
		if f.ConditionalConstructs >= 1 {
			met++
		}
		if f.CorrelatedSubqueries >= 1 {
			met++
		}
		if met < 3 {
			t.Errorf("query %d meets only %d selection criteria", q.ID, met)
		}
	}
	if ByID(7) == nil || ByID(99) != nil {
		t.Fatalf("ByID broken")
	}
	if MustByID(21).ID != 21 {
		t.Fatalf("MustByID broken")
	}
	p := DefaultParams()
	if p.SalesYear != 2001 || p.InventoryDate != "2002-05-29" || len(p.Cities) != 2 || p.ReturnMonth != 10 {
		t.Fatalf("DefaultParams = %+v", p)
	}
}

func TestMustByIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustByID(3)
}

func TestDenormalizedPipelinesParseAndTargetOutputs(t *testing.T) {
	p := DefaultParams()
	for _, q := range All() {
		stages := q.DenormalizedPipeline(p)
		if len(stages) < 4 {
			t.Fatalf("query %d pipeline has %d stages", q.ID, len(stages))
		}
		// First stage is a $match (predicates), last is $out to the thesis'
		// output collection name.
		if !stages[0].Has("$match") {
			t.Errorf("query %d pipeline does not start with $match", q.ID)
		}
		outTarget, ok := stages[len(stages)-1].Get("$out")
		if !ok || outTarget != q.OutputCollection {
			t.Errorf("query %d pipeline $out = %v", q.ID, outTarget)
		}
		// Every pipeline carries a $group and a $sort (Table 3.5: one
		// group-by/order-by clause per query).
		names := map[string]bool{}
		for _, s := range stages {
			for _, f := range s.Fields() {
				names[f.Key] = true
			}
		}
		if !names["$group"] || !names["$sort"] {
			t.Errorf("query %d pipeline stages = %v", q.ID, names)
		}
	}
	if (&Query{ID: 99}).DenormalizedPipeline(p) != nil {
		t.Fatalf("unknown query should have no pipeline")
	}
}

func TestNormalizedPlansShape(t *testing.T) {
	p := DefaultParams()
	for _, id := range []int{7, 21, 46} {
		q := MustByID(id)
		plan, ok := q.NormalizedPlan(p)
		if !ok {
			t.Fatalf("query %d should have a normalized plan", id)
		}
		if plan.Fact == "" || len(plan.Filters) == 0 || len(plan.Embed) == 0 || len(plan.Aggregation) == 0 {
			t.Fatalf("query %d plan incomplete: %+v", id, plan)
		}
		if plan.Output == "" || !strings.Contains(plan.Output, "norm") {
			t.Fatalf("query %d plan output = %q", id, plan.Output)
		}
		// The aggregation must not carry its own $out; the runner adds one.
		for _, s := range plan.Aggregation {
			if s.Has("$out") {
				t.Fatalf("query %d aggregation should not contain $out", id)
			}
		}
	}
	if _, ok := MustByID(50).NormalizedPlan(p); ok {
		t.Fatalf("query 50 is handled by the custom runner, not a generic plan")
	}
}

// TestQueriesAgainstHandBuiltDataset runs every query both ways on a tiny
// hand-loaded dataset and checks the two data models agree.
func TestQueriesAgainstHandBuiltDataset(t *testing.T) {
	scale := tpcds.ScaleSmall.WithDivisor(8000)
	gen := tpcds.NewGenerator(scale, 3)
	params := DefaultParams()

	normalized := driver.NewStandalone(mongod.NewServer(mongod.Options{}).Database("norm"))
	if _, err := migrate.LoadDataset(normalized, gen); err != nil {
		t.Fatal(err)
	}
	if err := migrate.EnsureQueryIndexes(normalized, gen.Schema()); err != nil {
		t.Fatal(err)
	}

	denormStore := driver.NewStandalone(mongod.NewServer(mongod.Options{}).Database("denorm"))
	if _, err := migrate.LoadDataset(denormStore, gen); err != nil {
		t.Fatal(err)
	}
	if err := migrate.EnsureQueryIndexes(denormStore, gen.Schema()); err != nil {
		t.Fatal(err)
	}
	if _, err := denorm.DenormalizeDataset(denormStore, gen.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := denorm.EnsureDenormalizedIndexes(denormStore); err != nil {
		t.Fatal(err)
	}

	for _, q := range All() {
		normDocs, normTime, err := RunNormalized(normalized, q, params)
		if err != nil {
			t.Fatalf("query %d normalized: %v", q.ID, err)
		}
		denormDocs, denormTime, err := RunDenormalized(denormStore, q, params)
		if err != nil {
			t.Fatalf("query %d denormalized: %v", q.ID, err)
		}
		if normTime <= 0 || denormTime <= 0 {
			t.Fatalf("query %d durations not measured", q.ID)
		}
		if len(normDocs) != len(denormDocs) {
			t.Fatalf("query %d: normalized %d docs, denormalized %d docs", q.ID, len(normDocs), len(denormDocs))
		}
		for i := range normDocs {
			if !normDocs[i].EqualUnordered(denormDocs[i]) {
				t.Fatalf("query %d row %d differs:\n  normalized:   %s\n  denormalized: %s",
					q.ID, i, normDocs[i], denormDocs[i])
			}
		}
		// The output collections were materialized via $out on both paths.
		if n, _ := denormStore.Count(q.OutputCollection, nil); n != len(denormDocs) {
			t.Errorf("query %d denormalized output collection has %d docs, want %d", q.ID, n, len(denormDocs))
		}
	}

	// Running a query with no normalized plan through RunNormalized errors.
	if _, _, err := RunNormalized(normalized, &Query{ID: 99, Name: "q99"}, params); err == nil {
		t.Fatalf("unknown query should fail")
	}
	// A bad pipeline surfaces an error from RunDenormalized.
	if _, _, err := RunDenormalized(denormStore, &Query{ID: 99, Name: "q99", Fact: "store_sales"}, params); err == nil {
		t.Fatalf("query without a pipeline should fail")
	}
}

// TestQuery50DropsIntermediateOnError: Query 50's intermediate collection
// does not outlive a failed run. The embedding's bulk write fails after the
// joined documents were written.
func TestQuery50DropsIntermediateOnError(t *testing.T) {
	store := driver.NewStandalone(mongod.NewServer(mongod.Options{}).Database("norm"))
	if _, err := migrate.LoadDataset(store, tpcds.NewGenerator(tpcds.ScaleSmall.WithDivisor(8000), 1)); err != nil {
		t.Fatal(err)
	}
	failing := &failingBulk{Store: store}
	if _, _, err := RunNormalized(failing, MustByID(50), DefaultParams()); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("query 50 over a failing store: %v, want the injected error", err)
	}
	if failing.wrote == 0 {
		t.Fatalf("query 50 wrote no intermediate documents; the leak check proves nothing")
	}
	if n, _ := store.Count("store_sales_query50_intermediate", nil); n != 0 {
		t.Fatalf("query 50 left %d documents in its intermediate collection after failing", n)
	}
}

// failingBulk is a store whose bulk writes fail; wrote counts the documents
// that reached it through InsertMany.
type failingBulk struct {
	driver.Store
	wrote int
}

func (s *failingBulk) InsertMany(coll string, docs []*bson.Doc) ([]any, error) {
	s.wrote += len(docs)
	return s.Store.InsertMany(coll, docs)
}

func (s *failingBulk) BulkWrite(string, []storage.WriteOp, storage.BulkOptions) storage.BulkResult {
	return storage.BulkResult{DurabilityErr: errors.New("injected bulk failure")}
}

func TestShiftDate(t *testing.T) {
	if got := shiftDate("2002-05-29", -30); got != "2002-04-29" {
		t.Fatalf("shiftDate -30 = %s", got)
	}
	if got := shiftDate("2002-05-29", 30); got != "2002-06-28" {
		t.Fatalf("shiftDate +30 = %s", got)
	}
	if got := shiftDate("garbage", 5); got != "garbage" {
		t.Fatalf("bad date should pass through, got %s", got)
	}
}

func TestQuery50BucketStagesCoverAllBuckets(t *testing.T) {
	// Feed synthetic diffs through the shared bucket stages and verify each
	// lands in the right bucket.
	docs := []*bson.Doc{
		bson.D("diff", 10, "s_store_name", "able", "s_company_id", 1, "s_street_number", "1",
			"s_street_name", "Main", "s_street_type", "St", "s_suite_number", "1", "s_city", "Midway",
			"s_county", "W", "s_state", "OH", "s_zip", "45040"),
		bson.D("diff", 45, "s_store_name", "able", "s_company_id", 1, "s_street_number", "1",
			"s_street_name", "Main", "s_street_type", "St", "s_suite_number", "1", "s_city", "Midway",
			"s_county", "W", "s_state", "OH", "s_zip", "45040"),
		bson.D("diff", 75, "s_store_name", "able", "s_company_id", 1, "s_street_number", "1",
			"s_street_name", "Main", "s_street_type", "St", "s_suite_number", "1", "s_city", "Midway",
			"s_county", "W", "s_state", "OH", "s_zip", "45040"),
		bson.D("diff", 100, "s_store_name", "able", "s_company_id", 1, "s_street_number", "1",
			"s_street_name", "Main", "s_street_type", "St", "s_suite_number", "1", "s_city", "Midway",
			"s_county", "W", "s_state", "OH", "s_zip", "45040"),
		bson.D("diff", 500, "s_store_name", "able", "s_company_id", 1, "s_street_number", "1",
			"s_street_name", "Main", "s_street_type", "St", "s_suite_number", "1", "s_city", "Midway",
			"s_county", "W", "s_state", "OH", "s_zip", "45040"),
	}
	store := driver.NewStandalone(mongod.NewServer(mongod.Options{}).Database("t"))
	if _, err := store.InsertMany("joined", docs); err != nil {
		t.Fatal(err)
	}
	out, err := store.Aggregate("joined", query50BucketStages("bucket_out"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("groups = %d", len(out))
	}
	for _, bucket := range []string{"30 days", "31-60 days", "61-90 days", "91-120 days", ">120 days"} {
		if v, _ := out[0].Get(bucket); v != int64(1) {
			t.Errorf("bucket %q = %v, want 1", bucket, v)
		}
	}
}
