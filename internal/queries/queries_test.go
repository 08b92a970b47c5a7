package queries

import (
	"errors"
	"strings"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/denorm"
	"docstore/internal/driver"
	"docstore/internal/migrate"
	"docstore/internal/mongod"
	"docstore/internal/storage"
	"docstore/internal/tpcds"
	"docstore/internal/translate"
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

// TestNormalizedCriticalPath pins each normalized run's critical path, as
// translate.Exec computes it from the calls' dependencies, on a stand-alone
// store: q7 and q21 are a filter, the semi-join, an embedding's find and
// write, and the aggregation; q46's address under the customer adds a find
// after the customer's; q50 is dates, returns, sales and the join, the
// intermediate write beside the store find, the embedding's write, and the
// aggregation.
func TestNormalizedCriticalPath(t *testing.T) {
	store := driver.NewStandalone(mongod.NewServer(mongod.Options{}).Database("norm"))
	if _, err := migrate.LoadDataset(store, tpcds.NewGenerator(tpcds.ScaleSmall.WithDivisor(8000), 1)); err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	for id, want := range map[int]int{7: 5, 21: 5, 46: 6, 50: 6} {
		var hops int
		if plan, ok := MustByID(id).NormalizedPlan(params); ok {
			res, err := translate.Run(store, plan)
			if err != nil {
				t.Fatalf("query %d: %v", id, err)
			}
			hops = res.Hops
		} else {
			var err error
			if _, hops, err = runQuery50Normalized(store, params); err != nil {
				t.Fatalf("query %d: %v", id, err)
			}
		}
		if hops != want {
			t.Errorf("query %d: critical path %d calls, want %d", id, hops, want)
		}
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
// does not outlive a failed run: neither when the embedding's bulk write
// fails after the joined documents were written, nor when the write of the
// joined documents fails while the store find it overlaps is in flight.
func TestQuery50DropsIntermediateOnError(t *testing.T) {
	store := driver.NewStandalone(mongod.NewServer(mongod.Options{}).Database("norm"))
	if _, err := migrate.LoadDataset(store, tpcds.NewGenerator(tpcds.ScaleSmall.WithDivisor(8000), 1)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		store *failingStore
	}{
		{"bulk write fails", &failingStore{Store: store, failBulk: true}},
		{"overlapped intermediate write fails", &failingStore{Store: store, failInsert: true, storeFind: make(chan struct{})}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := RunNormalized(c.store, MustByID(50), DefaultParams()); err == nil || !strings.Contains(err.Error(), "injected") {
				t.Fatalf("query 50 over a failing store: %v, want the injected error", err)
			}
			if c.store.wrote == 0 {
				t.Fatalf("query 50 wrote no intermediate documents; the leak check proves nothing")
			}
			if n, _ := store.Count("store_sales_query50_intermediate", nil); n != 0 {
				t.Fatalf("query 50 left %d documents in its intermediate collection after failing", n)
			}
		})
	}
}

// failingStore fails every bulk write (failBulk), or every InsertMany after
// it has written its documents (failInsert); wrote counts the documents that
// reached it through InsertMany. With storeFind set, InsertMany first waits
// for the store dimension's find to start, which it overlaps.
type failingStore struct {
	driver.Store
	failBulk, failInsert bool
	storeFind            chan struct{}
	wrote                int
}

func (s *failingStore) Find(coll string, filter *bson.Doc, opts storage.FindOptions) ([]*bson.Doc, error) {
	if coll == "store" && s.storeFind != nil {
		close(s.storeFind)
	}
	return s.Store.Find(coll, filter, opts)
}

func (s *failingStore) InsertMany(coll string, docs []*bson.Doc) ([]any, error) {
	if s.storeFind != nil {
		select {
		case <-s.storeFind:
		case <-time.After(5 * time.Second):
			return nil, errors.New("the store find did not start beside the intermediate write")
		}
	}
	s.wrote += len(docs)
	ids, err := s.Store.InsertMany(coll, docs)
	if s.failInsert {
		return nil, errors.New("injected insert failure")
	}
	return ids, err
}

func (s *failingStore) BulkWrite(coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	if s.failBulk {
		return storage.BulkResult{DurabilityErr: errors.New("injected bulk failure")}
	}
	return s.Store.BulkWrite(coll, ops, opts)
}

// TestQuery50JoinKeepsStringTicketsApart: the join of sales to returns keys
// (ticket, item, customer) as the server's equality does. A return whose
// ticket is the string "7" and one whose ticket is the number 7, for the same
// item and customer, are two returns: each sale meets the one of its own
// ticket, and both tickets are fetched. A sale whose ticket and item are 7.0
// and 1.0 meets the number's return, as server equality would.
func TestQuery50JoinKeepsStringTicketsApart(t *testing.T) {
	params := DefaultParams()
	store := driver.NewStandalone(mongod.NewServer(mongod.Options{}).Database("norm"))
	load := map[string][]*bson.Doc{
		"date_dim": {
			bson.D("d_date_sk", 1000, "d_year", params.ReturnYear, "d_moy", params.ReturnMonth),
			bson.D("d_date_sk", 1090, "d_year", params.ReturnYear, "d_moy", params.ReturnMonth),
		},
		"store": {bson.D("s_store_sk", 1, "s_store_name", "able")},
		// The number's return first, so a key that confused the two would
		// keep the string's, and fetch the number's ticket only.
		"store_returns": {
			bson.D("sr_ticket_number", 7, "sr_item_sk", 1, "sr_customer_sk", 1, "sr_returned_date_sk", 1000),
			bson.D("sr_ticket_number", "7", "sr_item_sk", 1, "sr_customer_sk", 1, "sr_returned_date_sk", 1090),
		},
		"store_sales": {
			// 10 days before the number's return, 100 before the string's.
			bson.D("ss_ticket_number", 7, "ss_item_sk", 1, "ss_customer_sk", 1, "ss_sold_date_sk", 990, "ss_store_sk", 1),
			// 45 days before the string's return.
			bson.D("ss_ticket_number", "7", "ss_item_sk", 1, "ss_customer_sk", 1, "ss_sold_date_sk", 1045, "ss_store_sk", 1),
			// The number 7 as a float: 20 days before the number's return.
			bson.D("ss_ticket_number", 7.0, "ss_item_sk", 1.0, "ss_customer_sk", 1, "ss_sold_date_sk", 980, "ss_store_sk", 1),
		},
	}
	for coll, docs := range load {
		if _, err := store.InsertMany(coll, docs); err != nil {
			t.Fatal(err)
		}
	}
	docs, _, err := RunNormalized(store, MustByID(50), params)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("%d result rows, want one for the one store: %v", len(docs), docs)
	}
	for bucket, want := range map[string]int64{"30 days": 2, "31-60 days": 1, "61-90 days": 0, "91-120 days": 0, ">120 days": 0} {
		if got, _ := docs[0].Get(bucket); got != want {
			t.Errorf("bucket %q = %v, want %d: %s", bucket, got, want, docs[0])
		}
	}
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
