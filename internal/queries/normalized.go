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
// the single-fact plan shape; it is executed by runQuery50Normalized instead,
// and NormalizedPlan reports ok=false for it.
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
		docs, err := runQuery50Normalized(store, p)
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

// runQuery50Normalized executes Query 50 against the normalized model. The
// query joins two fact collections (store_sales ⋈ store_returns), which the
// generic Figure 4.8 plan does not cover; the steps below follow the same
// predetermined order, treating the pre-filtered store_returns set as the
// driving side of the join:
//
//  1. filter date_dim on the return year/month and collect d_date_sk keys,
//  2. semi-join store_returns on sr_returned_date_sk with $in,
//  3. fetch the store_sales documents whose ticket numbers appear in those
//     returns and keep the ones matching a return on (ticket, item, customer),
//  4. write the joined documents (sale + sr_returned_date_sk) into an
//     intermediate collection, embed the store dimension, and aggregate the
//     day-difference buckets per store.
func runQuery50Normalized(store driver.Store, p Params) ([]*bson.Doc, error) {
	// Step 1: the d2 dimension filter.
	dates, err := store.Find("date_dim", bson.D("d_year", p.ReturnYear, "d_moy", p.ReturnMonth), storage.FindOptions{})
	if err != nil {
		return nil, err
	}
	dateKeys := make([]any, 0, len(dates))
	for _, d := range dates {
		if sk, ok := d.Get("d_date_sk"); ok {
			dateKeys = append(dateKeys, sk)
		}
	}

	// Step 2: returns in the target month.
	returns, err := store.Find("store_returns", bson.D("sr_returned_date_sk", bson.D("$in", dateKeys)), storage.FindOptions{})
	if err != nil {
		return nil, err
	}
	type joinKey struct{ ticket, item, customer string }
	keyOf := func(t, i, c any) joinKey {
		return joinKey{fmt.Sprintf("%v", t), fmt.Sprintf("%v", i), fmt.Sprintf("%v", c)}
	}
	returnByKey := make(map[joinKey]*bson.Doc, len(returns))
	ticketSet := make(map[string]bool)
	var tickets []any
	for _, r := range returns {
		t, _ := r.Get("sr_ticket_number")
		i, _ := r.Get("sr_item_sk")
		c, _ := r.Get("sr_customer_sk")
		returnByKey[keyOf(t, i, c)] = r
		ts := fmt.Sprintf("%v", t)
		if !ticketSet[ts] {
			ticketSet[ts] = true
			tickets = append(tickets, t)
		}
	}

	// Step 3: candidate sales by ticket number (the shard key of the sharded
	// experiments, which is what lets the router target this query), joined
	// in memory on the full (ticket, item, customer) key.
	sales, err := store.Find("store_sales", bson.D("ss_ticket_number", bson.D("$in", tickets)), storage.FindOptions{})
	if err != nil {
		return nil, err
	}
	intermediate := "store_sales_query50_intermediate"
	store.DropCollection(intermediate)
	defer store.DropCollection(intermediate)
	var joined []*bson.Doc
	for _, s := range sales {
		t, _ := s.Get("ss_ticket_number")
		i, _ := s.Get("ss_item_sk")
		c, _ := s.Get("ss_customer_sk")
		r, ok := returnByKey[keyOf(t, i, c)]
		if !ok {
			continue
		}
		doc := s.Clone()
		doc.Delete(bson.IDKey)
		returnedSk, _ := r.Get("sr_returned_date_sk")
		doc.Set("sr_returned_date_sk", returnedSk)
		joined = append(joined, doc)
	}
	if len(joined) > 0 {
		if _, err := store.InsertMany(intermediate, joined); err != nil {
			return nil, err
		}
	}

	// Step 4: embed the store dimension and aggregate.
	if _, err := denorm.EmbedDocuments(store, intermediate, denorm.Embedding{
		Dimension: "store", FKField: "ss_store_sk", PKField: "s_store_sk",
	}); err != nil {
		return nil, err
	}
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
	stages = append(stages, query50BucketStages("query50_norm_output")...)
	docs, err := store.Aggregate(intermediate, stages)
	if err != nil {
		return nil, err
	}
	return docs, nil
}
