package translate

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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
	// The filters, the semi-join, the item's find and write, the aggregation.
	if res.Hops != 5 {
		t.Fatalf("critical path = %d calls, want 5", res.Hops)
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
	// Both filters fail, the second one first: the error is the first
	// filter's in plan order.
	itemFailed := make(chan struct{})
	bothFilters := &probeStore{Store: store, enter: func(c probe) error {
		switch {
		case c.op == "Find" && c.field == "i_current_price":
			close(itemFailed)
			return errors.New("injected item failure")
		case c.op == "Find" && c.field == "d_year":
			waitFor(itemFailed, meetLimit)
			return errors.New("injected date failure")
		}
		return nil
	}}
	if _, err := Run(bothFilters, plan()); err == nil || !strings.Contains(err.Error(), "filtering date_dim: injected date failure") {
		t.Fatalf("two failed filters: %v, want the first filter's error", err)
	}
	// One filter fails beside a slow one, held until Run returns or the
	// bound runs out: Run returns only after the slow find has, so no call
	// outlives it.
	runReturned := make(chan struct{})
	slowFilter := &probeStore{Store: store, enter: func(c probe) error {
		switch {
		case c.op == "Find" && c.field == "d_year":
			return errors.New("injected date failure")
		case c.op == "Find" && c.field == "i_current_price":
			waitFor(runReturned, holdLimit)
		}
		return nil
	}}
	_, err := Run(slowFilter, plan())
	open := slowFilter.open()
	close(runReturned)
	if err == nil || !strings.Contains(err.Error(), "injected date failure") {
		t.Fatalf("failed filter beside a slow one: %v, want the injected error", err)
	}
	if open != 0 {
		t.Fatalf("Run returned with %d of its calls still in flight", open)
	}

	// The failures below happen after the intermediate collection was
	// written; it must not outlive the run.
	p = plan()
	p.Aggregation = []*bson.Doc{bson.D("$bogus", 1)}
	if _, err := Run(store, p); err == nil {
		t.Fatalf("bad aggregation should fail")
	}
	if n := intermediateLeft(); n != 0 {
		t.Fatalf("a failed aggregation left %d documents in the intermediate collection", n)
	}
	failing := &probeStore{Store: store, enter: func(c probe) error {
		if c.op == "BulkWrite" {
			return errors.New("injected bulk failure")
		}
		return nil
	}}
	if _, err := Run(failing, plan()); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("failed embedding: %v, want the injected error", err)
	}
	if n := intermediateLeft(); n != 0 {
		t.Fatalf("a failed embedding left %d documents in the intermediate collection", n)
	}
	// Two independent embeddings run together. One fails: the other still
	// finishes, the run fails with the injected error, and the intermediate
	// collection goes. Both fail, the second one first: the error is the
	// first's in plan order.
	twoEmbeddings := plan()
	twoEmbeddings.Embed = []denorm.Embedding{
		{Dimension: "date_dim", FKField: "ss_sold_date_sk", PKField: "d_date_sk"},
		{Dimension: "item", FKField: "ss_item_sk", PKField: "i_item_sk"},
	}
	oneFails := &probeStore{Store: store, enter: func(c probe) error {
		if c.op == "BulkWrite" && c.field == "ss_item_sk" {
			return errors.New("injected item failure")
		}
		return nil
	}}
	if _, err := Run(oneFails, twoEmbeddings); err == nil || !strings.Contains(err.Error(), "injected item failure") {
		t.Fatalf("one failed embedding of two: %v, want the injected error", err)
	}
	if n := intermediateLeft(); n != 0 {
		t.Fatalf("a failed concurrent embedding left %d documents in the intermediate collection", n)
	}
	itemFailed = make(chan struct{})
	bothFail := &probeStore{Store: store, enter: func(c probe) error {
		switch {
		case c.op != "BulkWrite":
		case c.field == "ss_item_sk":
			close(itemFailed)
			return errors.New("injected item failure")
		case c.field == "ss_sold_date_sk":
			waitFor(itemFailed, meetLimit)
			return errors.New("injected date failure")
		}
		return nil
	}}
	if _, err := Run(bothFail, twoEmbeddings); err == nil || !strings.Contains(err.Error(), "injected date failure") {
		t.Fatalf("two failed embeddings: %v, want the first embedding's error", err)
	}
	if n := intermediateLeft(); n != 0 {
		t.Fatalf("two failed embeddings left %d documents in the intermediate collection", n)
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

// TestRunFiltersInFlightTogether: step 1's dimension finds are in flight at
// once. Each is held until every filtered dimension's find has started, so a
// run that issued them one after another would hold the first until the bound
// ran out, and fail.
func TestRunFiltersInFlightTogether(t *testing.T) {
	store := buildMiniRetail(t)
	p := plan()
	met := newRendezvous(len(p.Filters))
	held := &probeStore{Store: store, enter: func(c probe) error {
		// plan()'s two step-1 finds, by their where clauses.
		if c.op == "Find" && (c.field == "d_year" || c.field == "i_current_price") && !met.arrive() {
			return fmt.Errorf("the %s filter waited %v for the others to start", c.coll, meetLimit)
		}
		return nil
	}}
	res, err := Run(held, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntermediateDocs != 4 || len(res.Docs) != 2 {
		t.Fatalf("%d intermediate documents and %d groups, want 4 and 2", res.IntermediateDocs, len(res.Docs))
	}
}

// TestRunCallsDoNotGrowWithDimensionSize: a plan costs a fixed number of
// store calls — its filters, the semi-join, two per embedding (the find and
// the bulk write: the keys come from the semi-joined documents, with no call),
// the aggregation and the intermediate collection's drop — whether the
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
		counting := &probeStore{Store: store}
		res, err := Run(counting, plan())
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, counting.count())
		groups = append(groups, res.Docs)
	}
	// 2 filters + semi-join aggregate + (find, bulk) + aggregate + drop.
	if calls[0] != 7 {
		t.Fatalf("the plan took %d store calls, want 7", calls[0])
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

// TestRunEmbedsNestedDimensionAfterItsParent: each embedding waits for what
// it reads and nothing else. The dotted one — a brand inside the embedded
// item — finds its brands after the item's find has returned, whose
// documents name them, and writes after the item's bulk write has returned,
// so its updates find the document their path reaches into. The two
// independent ones, date and item, run together (each find is held until the
// other's has started), and the brand's find runs beside the item's bulk
// write (each is held until the other has started). KeepIntermediate lets the
// test read the embedded documents back.
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
	finds, brandBesideItem := newRendezvous(2), newRendezvous(2)
	probed := &probeStore{Store: store, enter: func(c probe) error {
		switch {
		case c.op == "Find" && (c.coll == "date_dim" && c.field == "d_date_sk" || c.coll == "item" && c.field == "i_item_sk"):
			if !finds.arrive() {
				return fmt.Errorf("the %s find waited %v for the other to start", c.coll, meetLimit)
			}
		case c.op == "Find" && c.coll == "brand", c.op == "BulkWrite" && c.field == "ss_item_sk":
			if !brandBesideItem.arrive() {
				return fmt.Errorf("the %s %s waited %v for the other to start", c.coll, c.op, meetLimit)
			}
		}
		return nil
	}}
	res, err := Run(probed, p)
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

	find := func(e denorm.Embedding) func(probe) bool {
		return func(c probe) bool { return c.op == "Find" && c.coll == e.Dimension && c.field == e.PKField }
	}
	write := func(e denorm.Embedding) func(probe) bool {
		return func(c probe) bool { return c.op == "BulkWrite" && c.field == e.FKField }
	}
	dateStart, dateEnd := probed.interval(t, find(p.Embed[0]))
	itemStart, itemFound := probed.interval(t, find(p.Embed[1]))
	brandStart, _ := probed.interval(t, find(p.Embed[2]))
	_, itemWritten := probed.interval(t, write(p.Embed[1]))
	brandWriteStart, _ := probed.interval(t, write(p.Embed[2]))
	if brandStart < itemFound {
		t.Fatalf("the brand find started at %d, before the item's find returned at %d", brandStart, itemFound)
	}
	if brandWriteStart < itemWritten {
		t.Fatalf("the brand bulk write started at %d, before the item's returned at %d", brandWriteStart, itemWritten)
	}
	if dateStart > itemFound || itemStart > dateEnd {
		t.Fatalf("the date [%d, %d] and item [%d, %d] finds did not overlap", dateStart, dateEnd, itemStart, itemFound)
	}
}

// TestRunOverlappingEmbeddingsMatchSequential: embedding lists whose keys
// cannot all come from the semi-joined documents give what the sequential
// specification gives, in the results and in the embedded intermediate
// documents. An embedding at the same key as an earlier one, or at a prefix
// of an earlier one's key, reads its keys from the server after the earlier
// writes; one under an earlier key takes the union with the earlier
// embedding's dimension documents, which here names a brand that only a
// second item 1 — the one that loses to the first — refers to.
func TestRunOverlappingEmbeddingsMatchSequential(t *testing.T) {
	item := denorm.Embedding{Dimension: "item", FKField: "ss_item_sk", PKField: "i_item_sk"}
	brand := denorm.Embedding{Dimension: "brand", FKField: "ss_item_sk.i_brand_sk", PKField: "b_sk"}
	date := denorm.Embedding{Dimension: "date_dim", FKField: "ss_sold_date_sk", PKField: "d_date_sk"}
	for _, c := range []struct {
		embs []denorm.Embedding
		// serverKeys is how many of the embeddings ask the server for keys.
		serverKeys int
	}{
		{[]denorm.Embedding{item, brand, date}, 0},
		{[]denorm.Embedding{item, brand, item}, 1},
		{[]denorm.Embedding{brand, item, brand}, 2},
		{[]denorm.Embedding{date, item, brand, brand}, 1},
	} {
		var names []string
		for _, e := range c.embs {
			names = append(names, e.FKField)
		}
		t.Run(strings.Join(names, ","), func(t *testing.T) {
			store := buildMiniRetail(t)
			for b := 1; b <= 3; b++ {
				if _, err := store.Insert("brand", bson.D("b_sk", b, "b_name", fmt.Sprintf("brand-%d", b))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i <= 4; i++ {
				if _, err := store.Update("item", query.UpdateSpec{Query: bson.D("i_item_sk", i), Update: bson.D("$set", bson.D("i_brand_sk", (i+1)/2))}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := store.Insert("item", bson.D("i_item_sk", 1, "i_item_id", "second item 1", "i_brand_sk", 3)); err != nil {
				t.Fatal(err)
			}
			p := plan()
			p.Filters = p.Filters[:1]
			p.Embed = c.embs
			p.Aggregation = []*bson.Doc{
				bson.D("$group", bson.D(bson.IDKey, "$ss_item_sk.i_brand_sk.b_name", "sales", bson.D("$sum", 1))),
				bson.D("$sort", bson.D(bson.IDKey, 1)),
			}
			p.KeepIntermediate = true
			intermediate := func() []string {
				docs, err := store.Find(p.intermediateName(), nil, storage.FindOptions{})
				if err != nil {
					t.Fatal(err)
				}
				out := make([]string, len(docs))
				for i, d := range docs {
					d.Delete(bson.IDKey)
					out[i] = d.ToJSON()
				}
				slices.Sort(out)
				return out
			}
			want, err := runSequential(store, p)
			if err != nil {
				t.Fatal(err)
			}
			wantDocs := intermediate()
			store.DropCollection(p.intermediateName())
			probed := &probeStore{Store: store}
			got, err := Run(probed, p)
			if err != nil {
				t.Fatal(err)
			}
			keyReads := 0
			for _, call := range probed.calls {
				if call.op == "Aggregate" && call.coll == p.intermediateName() && slices.ContainsFunc(c.embs, func(e denorm.Embedding) bool { return e.FKField == call.field }) {
					keyReads++
				}
			}
			if keyReads != c.serverKeys {
				t.Fatalf("%d embeddings read their keys on the server, want %d", keyReads, c.serverKeys)
			}
			if len(got.Docs) != len(want.Docs) {
				t.Fatalf("%d results, sequential %d: %v vs %v", len(got.Docs), len(want.Docs), got.Docs, want.Docs)
			}
			for i := range want.Docs {
				if !got.Docs[i].Equal(want.Docs[i]) {
					t.Fatalf("result %d: %s, sequential %s", i, got.Docs[i], want.Docs[i])
				}
			}
			if gotDocs := intermediate(); !slices.Equal(gotDocs, wantDocs) {
				t.Fatalf("embedded documents differ:\n got        %v\n sequential %v", gotDocs, wantDocs)
			}
		})
	}
}

// meetLimit bounds how long a held call waits for the calls it should run
// beside; holdLimit is how long a slow call is held.
const (
	meetLimit = 5 * time.Second
	holdLimit = 100 * time.Millisecond
)

// probeStore forwards every call to Store and records it: its method, its
// collection, its key field, and its start and end on one clock every
// goroutine shares. enter, when set, runs as a call starts and may hold it
// or fail it.
type probeStore struct {
	driver.Store
	enter func(probe) error

	mu    sync.Mutex
	clock int
	calls []*probe
}

// probe is one call. field names the part of the plan it serves: a find's
// first filter field, an aggregate's $group path, a bulk write's first update
// filter field.
type probe struct {
	op, coll, field string
	start, end      int
}

func (s *probeStore) begin(op, coll, field string) (*probe, error) {
	s.mu.Lock()
	s.clock++
	c := &probe{op: op, coll: coll, field: field, start: s.clock}
	s.calls = append(s.calls, c)
	s.mu.Unlock()
	if s.enter == nil {
		return c, nil
	}
	return c, s.enter(*c)
}

func (s *probeStore) finish(c *probe) {
	s.mu.Lock()
	s.clock++
	c.end = s.clock
	s.mu.Unlock()
}

// count is the number of calls started.
func (s *probeStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.calls)
}

// open is the number of calls started that have not returned.
func (s *probeStore) open() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.calls {
		if c.end == 0 {
			n++
		}
	}
	return n
}

// interval is the first start and the last end of the calls match selects.
func (s *probeStore) interval(t *testing.T, match func(probe) bool) (start, end int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.calls {
		if match(*c) {
			if start == 0 || c.start < start {
				start = c.start
			}
			end = max(end, c.end)
		}
	}
	if start == 0 {
		t.Fatalf("no call matched")
	}
	return start, end
}

func (s *probeStore) Find(coll string, filter *bson.Doc, opts storage.FindOptions) ([]*bson.Doc, error) {
	c, err := s.begin("Find", coll, firstKey(filter))
	defer s.finish(c)
	if err != nil {
		return nil, err
	}
	return s.Store.Find(coll, filter, opts)
}

func (s *probeStore) InsertMany(coll string, docs []*bson.Doc) ([]any, error) {
	c, err := s.begin("InsertMany", coll, "")
	defer s.finish(c)
	if err != nil {
		return nil, err
	}
	return s.Store.InsertMany(coll, docs)
}

func (s *probeStore) BulkWrite(coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	field := ""
	if len(ops) > 0 {
		field = firstKey(ops[0].Update.Query)
	}
	c, err := s.begin("BulkWrite", coll, field)
	defer s.finish(c)
	if err != nil {
		return storage.BulkResult{DurabilityErr: err}
	}
	return s.Store.BulkWrite(coll, ops, opts)
}

func (s *probeStore) Update(coll string, spec query.UpdateSpec) (storage.UpdateResult, error) {
	c, err := s.begin("Update", coll, firstKey(spec.Query))
	defer s.finish(c)
	if err != nil {
		return storage.UpdateResult{}, err
	}
	return s.Store.Update(coll, spec)
}

func (s *probeStore) Aggregate(coll string, stages []*bson.Doc) ([]*bson.Doc, error) {
	field := ""
	if len(stages) > 0 {
		group, _ := stages[0].Get("$group")
		spec, _ := group.(*bson.Doc)
		id, _ := spec.Get(bson.IDKey)
		path, _ := id.(string)
		field = strings.TrimPrefix(path, "$")
	}
	c, err := s.begin("Aggregate", coll, field)
	defer s.finish(c)
	if err != nil {
		return nil, err
	}
	return s.Store.Aggregate(coll, stages)
}

// DropCollection cannot fail, so enter only holds it.
func (s *probeStore) DropCollection(coll string) bool {
	c, _ := s.begin("DropCollection", coll, "")
	defer s.finish(c)
	return s.Store.DropCollection(coll)
}

// firstKey is d's first field name, "" for none.
func firstKey(d *bson.Doc) string {
	if keys := d.Keys(); len(keys) > 0 {
		return keys[0]
	}
	return ""
}

// rendezvous holds each of n arrivals until all n have arrived.
type rendezvous struct {
	mu      sync.Mutex
	waiting int
	all     chan struct{}
}

func newRendezvous(n int) *rendezvous { return &rendezvous{waiting: n, all: make(chan struct{})} }

// arrive reports whether all n arrived within meetLimit.
func (r *rendezvous) arrive() bool {
	r.mu.Lock()
	if r.waiting--; r.waiting == 0 {
		close(r.all)
	}
	r.mu.Unlock()
	return waitFor(r.all, meetLimit)
}

// waitFor reports whether ch closed within limit.
func waitFor(ch <-chan struct{}, limit time.Duration) bool {
	select {
	case <-ch:
		return true
	case <-time.After(limit):
		return false
	}
}
