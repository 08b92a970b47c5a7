package queries

import (
	"fmt"
	"time"

	"docstore/internal/bson"
	"docstore/internal/denorm"
	"docstore/internal/driver"
	"docstore/internal/storage"
	"docstore/internal/translate"
)

// NormalizedPlan returns the Figure 4.8 translation of the query for the
// normalized data model. Query 50 joins two fact collections and does not fit
// the single-fact plan shape, so NormalizedPlan reports ok=false for it:
// runQuery50Normalized builds its own list of calls for the same executor,
// translate.Exec.
func (q *Query) NormalizedPlan(p Params) (translate.Plan, bool) {
	switch q.ID {
	case 7:
		return query7NormalizedPlan(p), true
	case 21:
		return query21NormalizedPlan(p), true
	case 46:
		return query46NormalizedPlan(p), true
	default:
		return translate.Plan{}, false
	}
}

// RunNormalized executes the query against the normalized data model
// (Experiments 1, 2, 4 and 5).
func RunNormalized(store driver.Store, q *Query, p Params) ([]*bson.Doc, time.Duration, error) {
	start := time.Now()
	if q.ID == 50 {
		docs, _, err := runQuery50Normalized(store, p)
		if err != nil {
			return nil, 0, fmt.Errorf("queries: %s normalized: %w", q.Name, err)
		}
		return docs, time.Since(start), nil
	}
	plan, ok := q.NormalizedPlan(p)
	if !ok {
		return nil, 0, fmt.Errorf("queries: %s has no normalized plan", q.Name)
	}
	res, err := translate.Run(store, plan)
	if err != nil {
		return nil, 0, fmt.Errorf("queries: %s normalized: %w", q.Name, err)
	}
	return res.Docs, time.Since(start), nil
}

func query7NormalizedPlan(p Params) translate.Plan {
	return translate.Plan{
		Name: "query7",
		Fact: "store_sales",
		Filters: []translate.DimFilter{
			{
				Dimension: "customer_demographics", FKField: "ss_cdemo_sk", PKField: "cd_demo_sk",
				Where: bson.D(
					"cd_gender", p.Gender,
					"cd_marital_status", p.MaritalStatus,
					"cd_education_status", p.EducationStatus,
				),
			},
			{
				Dimension: "date_dim", FKField: "ss_sold_date_sk", PKField: "d_date_sk",
				Where: bson.D("d_year", p.SalesYear),
			},
			{
				Dimension: "promotion", FKField: "ss_promo_sk", PKField: "p_promo_sk",
				Where: bson.D("$or", bson.A(
					bson.D("p_channel_email", "N"),
					bson.D("p_channel_event", "N"),
				)),
			},
		},
		Embed: []denorm.Embedding{
			{Dimension: "item", FKField: "ss_item_sk", PKField: "i_item_sk"},
		},
		Aggregation: []*bson.Doc{
			query7GroupStage(),
			bson.D("$sort", bson.D(bson.IDKey, 1)),
			query7ProjectStage(),
		},
		Output: "query7_norm_output",
	}
}

func query21NormalizedPlan(p Params) translate.Plan {
	lo, hi := shiftDate(p.InventoryDate, -30), shiftDate(p.InventoryDate, +30)
	// The aggregation stages are the shared Query 21 tail (everything after
	// the predicate $match), minus the trailing $out which translate.Run adds.
	tail := query21Pipeline(p, "ignored", false)
	tail = tail[:len(tail)-1]
	return translate.Plan{
		Name: "query21",
		Fact: "inventory",
		Filters: []translate.DimFilter{
			{
				Dimension: "item", FKField: "inv_item_sk", PKField: "i_item_sk",
				Where: bson.D("i_current_price", bson.D("$gte", p.PriceMin, "$lte", p.PriceMax)),
			},
			{
				Dimension: "date_dim", FKField: "inv_date_sk", PKField: "d_date_sk",
				Where: bson.D("d_date", bson.D("$gte", lo, "$lte", hi)),
			},
		},
		Embed: []denorm.Embedding{
			{Dimension: "warehouse", FKField: "inv_warehouse_sk", PKField: "w_warehouse_sk"},
			{Dimension: "item", FKField: "inv_item_sk", PKField: "i_item_sk"},
			{Dimension: "date_dim", FKField: "inv_date_sk", PKField: "d_date_sk"},
		},
		Aggregation: tail,
		Output:      "query21_norm_output",
	}
}

func query46NormalizedPlan(p Params) translate.Plan {
	cities := make([]any, len(p.Cities))
	for i, c := range p.Cities {
		cities[i] = c
	}
	dows := make([]any, len(p.DOW))
	for i, d := range p.DOW {
		dows[i] = d
	}
	years := make([]any, len(p.Years))
	for i, y := range p.Years {
		years[i] = y
	}
	tail := query46Pipeline(p, "ignored", false)
	tail = tail[:len(tail)-1]
	return translate.Plan{
		Name: "query46",
		Fact: "store_sales",
		Filters: []translate.DimFilter{
			{
				Dimension: "store", FKField: "ss_store_sk", PKField: "s_store_sk",
				Where: bson.D("s_city", bson.D("$in", cities)),
			},
			{
				Dimension: "date_dim", FKField: "ss_sold_date_sk", PKField: "d_date_sk",
				Where: bson.D("d_dow", bson.D("$in", dows), "d_year", bson.D("$in", years)),
			},
			{
				Dimension: "household_demographics", FKField: "ss_hdemo_sk", PKField: "hd_demo_sk",
				Where: bson.D("$or", bson.A(
					bson.D("hd_dep_count", p.DepCount),
					bson.D("hd_vehicle_count", p.VehicleCount),
				)),
			},
		},
		Embed: []denorm.Embedding{
			{Dimension: "customer_address", FKField: "ss_addr_sk", PKField: "ca_address_sk"},
			{Dimension: "customer", FKField: "ss_customer_sk", PKField: "c_customer_sk"},
			// The customer's current address is one level deeper: embed the
			// address into the already-embedded customer document.
			{Dimension: "customer_address", FKField: "ss_customer_sk.c_current_addr_sk", PKField: "ca_address_sk"},
		},
		Aggregation: tail,
		Output:      "query46_norm_output",
	}
}

// runQuery50Normalized executes Query 50 against the normalized model and
// returns its critical path in calls beside the result. The query joins two
// fact collections (store_sales ⋈ store_returns), which the generic Figure
// 4.8 plan does not cover; it is its own list of calls for translate.Exec,
// treating the pre-filtered store_returns set as the driving side of the join:
//
//  1. filter date_dim on the return year/month and collect d_date_sk keys,
//  2. semi-join store_returns on sr_returned_date_sk with $in,
//  3. fetch the store_sales documents whose ticket numbers appear in those
//     returns and keep the ones matching a return on (ticket, item, customer),
//  4. write the joined documents (sale + sr_returned_date_sk) into an
//     intermediate collection beside the find of the stores they name,
//  5. embed the store dimension into them and
//  6. aggregate the day-difference buckets per store.
//
// The store keys come from the joined documents, read by step 3 before step 4
// hands them to InsertMany, which gives each an _id in place.
func runQuery50Normalized(store driver.Store, p Params) ([]*bson.Doc, int, error) {
	const intermediate = "store_sales_query50_intermediate"
	var (
		dateKeys, tickets, storeKeys []any
		returnByKey                  map[string]*bson.Doc
		joined, stores, docs         []*bson.Doc
		written                      bool
	)
	calls := []translate.Call{
		// Step 1: the d2 dimension filter.
		{Do: func() error {
			dates, err := store.Find("date_dim", bson.D("d_year", p.ReturnYear, "d_moy", p.ReturnMonth), storage.FindOptions{})
			if err != nil {
				return err
			}
			dateKeys = make([]any, 0, len(dates))
			for _, d := range dates {
				if sk, ok := d.Get("d_date_sk"); ok {
					dateKeys = append(dateKeys, sk)
				}
			}
			return nil
		}},
		// Step 2: returns in the target month.
		{After: []int{0}, Do: func() error {
			returns, err := store.Find("store_returns", bson.D("sr_returned_date_sk", bson.D("$in", dateKeys)), storage.FindOptions{})
			if err != nil {
				return err
			}
			var key []byte
			returnByKey = make(map[string]*bson.Doc, len(returns))
			ticketSet := make(map[string]bool)
			for _, r := range returns {
				t, _ := r.Get("sr_ticket_number")
				i, _ := r.Get("sr_item_sk")
				c, _ := r.Get("sr_customer_sk")
				key = joinKey(key[:0], t, i, c)
				returnByKey[string(key)] = r
				key = bson.AppendKey(key[:0], t)
				if !ticketSet[string(key)] {
					ticketSet[string(key)] = true
					tickets = append(tickets, t)
				}
			}
			return nil
		}},
		// Step 3: candidate sales by ticket number (the shard key of the
		// sharded experiments, which is what lets the router target this
		// query), joined in memory on the full (ticket, item, customer) key.
		{After: []int{1}, Do: func() error {
			sales, err := store.Find("store_sales", bson.D("ss_ticket_number", bson.D("$in", tickets)), storage.FindOptions{})
			if err != nil {
				return err
			}
			var key []byte
			for _, s := range sales {
				t, _ := s.Get("ss_ticket_number")
				i, _ := s.Get("ss_item_sk")
				c, _ := s.Get("ss_customer_sk")
				r, ok := returnByKey[string(joinKey(key[:0], t, i, c))]
				if !ok {
					continue
				}
				doc := s.ShallowClone() // only top-level fields are written
				doc.Delete(bson.IDKey)
				returnedSk, _ := r.Get("sr_returned_date_sk")
				doc.Set("sr_returned_date_sk", returnedSk)
				joined = append(joined, doc)
			}
			storeKeys, err = denorm.ReferencedKeys(joined, query50Store.FKField)
			return err
		}},
		// Step 4: the intermediate write and the store find.
		{After: []int{2}, Do: func() error {
			store.DropCollection(intermediate)
			written = true
			if len(joined) == 0 {
				return nil
			}
			_, err := store.InsertMany(intermediate, joined)
			return err
		}},
		{After: []int{2}, Do: func() (err error) {
			stores, err = denorm.FetchDimension(store, query50Store, storeKeys)
			return err
		}},
		// Step 5: embed the stores.
		{After: []int{3, 4}, Do: func() error {
			_, err := denorm.ApplyEmbedding(store, intermediate, query50Store, stores)
			return err
		}},
		// Step 6: the buckets per store.
		{After: []int{5}, Do: func() (err error) {
			docs, err = store.Aggregate(intermediate, query50NormalizedStages())
			return err
		}},
	}
	hops, err := translate.Exec(calls)
	if written {
		store.DropCollection(intermediate)
	}
	return docs, hops, err
}

// query50Store is the one dimension Query 50's normalized run embeds.
var query50Store = denorm.Embedding{Dimension: "store", FKField: "ss_store_sk", PKField: "s_store_sk"}

// joinKey appends the key of a (ticket, item, customer) triple: two triples
// have the same key when the server's equality matches their parts, so the
// number 7 meets 7.0 and the string "7" meets neither.
func joinKey(dst []byte, ticket, item, customer any) []byte {
	return bson.AppendKey(bson.AppendKey(bson.AppendKey(dst, ticket), item), customer)
}

// query50NormalizedStages is step 6's aggregation over the embedded
// intermediate collection.
func query50NormalizedStages() []*bson.Doc {
	stages := []*bson.Doc{
		bson.D("$project", bson.D(
			"diff", bson.D("$subtract", bson.A("$sr_returned_date_sk", "$ss_sold_date_sk")),
			"s_store_name", "$ss_store_sk.s_store_name",
			"s_company_id", "$ss_store_sk.s_company_id",
			"s_street_number", "$ss_store_sk.s_street_number",
			"s_street_name", "$ss_store_sk.s_street_name",
			"s_street_type", "$ss_store_sk.s_street_type",
			"s_suite_number", "$ss_store_sk.s_suite_number",
			"s_city", "$ss_store_sk.s_city",
			"s_county", "$ss_store_sk.s_county",
			"s_state", "$ss_store_sk.s_state",
			"s_zip", "$ss_store_sk.s_zip",
		)),
	}
	return append(stages, query50BucketStages("query50_norm_output")...)
}
