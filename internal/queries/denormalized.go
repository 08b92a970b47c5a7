package queries

import (
	"fmt"
	"time"

	"docstore/internal/bson"
	"docstore/internal/denorm"
	"docstore/internal/driver"
	"docstore/internal/tpcds"
)

// DenormalizedPipeline returns the aggregation pipeline the query runs
// against its denormalized fact collection — the Appendix B scripts, with
// two corrections noted in doc.go ("Compiled pipelines"): field-path
// references carry their "$" prefix, and the Query 21 ratio guards against
// division by zero the way the SQL CASE expression does.
func (q *Query) DenormalizedPipeline(p Params) []*bson.Doc {
	switch q.ID {
	case 7:
		return query7DenormPipeline(p, q.OutputCollection)
	case 21:
		return query21Pipeline(p, q.OutputCollection, true)
	case 46:
		return query46Pipeline(p, q.OutputCollection, true)
	case 50:
		return query50DenormPipeline(p, q.OutputCollection)
	default:
		return nil
	}
}

// RunDenormalized executes the query against the denormalized data model
// (Experiments 3 and 6) and returns the result documents.
func RunDenormalized(store driver.Store, q *Query, p Params) ([]*bson.Doc, time.Duration, error) {
	pipeline := q.DenormalizedPipeline(p)
	if len(pipeline) == 0 {
		return nil, 0, fmt.Errorf("queries: query %d has no denormalized pipeline", q.ID)
	}
	start := time.Now()
	docs, err := store.Aggregate(q.Fact, pipeline)
	if err != nil {
		return nil, 0, fmt.Errorf("queries: %s denormalized: %w", q.Name, err)
	}
	return docs, time.Since(start), nil
}

// query7DenormPipeline mirrors the Appendix B Query 7 script.
func query7DenormPipeline(p Params, out string) []*bson.Doc {
	return []*bson.Doc{
		bson.D("$match", bson.D("$and", bson.A(
			bson.D("ss_cdemo_sk.cd_gender", p.Gender),
			bson.D("ss_cdemo_sk.cd_marital_status", p.MaritalStatus),
			bson.D("ss_cdemo_sk.cd_education_status", p.EducationStatus),
			bson.D("$or", bson.A(
				bson.D("ss_promo_sk.p_channel_email", "N"),
				bson.D("ss_promo_sk.p_channel_event", "N"),
			)),
			bson.D("ss_sold_date_sk.d_year", p.SalesYear),
			bson.D("ss_item_sk.i_item_sk", bson.D("$exists", true)),
		))),
		query7GroupStage(),
		bson.D("$sort", bson.D(bson.IDKey, 1)),
		query7ProjectStage(),
		bson.D("$out", out),
	}
}

// query7GroupStage and query7ProjectStage are shared by the denormalized and
// normalized executions: once the dimensions are embedded, both data models
// expose identical document paths.
func query7GroupStage() *bson.Doc {
	return bson.D("$group", bson.D(
		bson.IDKey, "$ss_item_sk.i_item_id",
		"agg1", bson.D("$avg", "$ss_quantity"),
		"agg2", bson.D("$avg", "$ss_list_price"),
		"agg3", bson.D("$avg", "$ss_coupon_amt"),
		"agg4", bson.D("$avg", "$ss_sales_price"),
	))
}

func query7ProjectStage() *bson.Doc {
	return bson.D("$project", bson.D(
		bson.IDKey, 0,
		"i_item_id", "$_id",
		"agg1", 1, "agg2", 1, "agg3", 1, "agg4", 1,
	))
}

// query21Pipeline builds the Query 21 pipeline. When withMatch is false the
// leading $match is omitted (the normalized execution applies those
// predicates through the semi-join instead).
func query21Pipeline(p Params, out string, withMatch bool) []*bson.Doc {
	pivot := p.InventoryDate
	lo, hi := shiftDate(pivot, -30), shiftDate(pivot, +30)
	var stages []*bson.Doc
	if withMatch {
		stages = append(stages, bson.D("$match", bson.D("$and", bson.A(
			bson.D("inv_item_sk.i_current_price", bson.D("$gte", p.PriceMin, "$lte", p.PriceMax)),
			bson.D("inv_warehouse_sk.w_warehouse_sk", bson.D("$exists", true)),
			bson.D("inv_date_sk.d_date", bson.D("$gte", lo, "$lte", hi)),
		))))
	}
	stages = append(stages,
		bson.D("$group", bson.D(
			bson.IDKey, bson.D("w_name", "$inv_warehouse_sk.w_warehouse_name", "i_id", "$inv_item_sk.i_item_id"),
			"inv_before", bson.D("$sum", bson.D("$cond", bson.A(
				bson.D("$lt", bson.A("$inv_date_sk.d_date", pivot)), "$inv_quantity_on_hand", 0))),
			"inv_after", bson.D("$sum", bson.D("$cond", bson.A(
				bson.D("$gte", bson.A("$inv_date_sk.d_date", pivot)), "$inv_quantity_on_hand", 0))),
		)),
		// The SQL CASE yields NULL when inv_before = 0, which the BETWEEN then
		// rejects; $cond reproduces that instead of dividing by zero.
		bson.D("$project", bson.D(
			bson.IDKey, 1,
			"inv_before", 1,
			"inv_after", 1,
			"ratio", bson.D("$cond", bson.A(
				bson.D("$gt", bson.A("$inv_before", 0)),
				bson.D("$divide", bson.A("$inv_after", "$inv_before")),
				nil,
			)),
		)),
		bson.D("$match", bson.D("ratio", bson.D("$gte", 2.0/3.0, "$lte", 3.0/2.0))),
		bson.D("$project", bson.D(
			bson.IDKey, 0,
			"w_warehouse_name", "$_id.w_name",
			"i_item_id", "$_id.i_id",
			"inv_before", 1,
			"inv_after", 1,
		)),
		bson.D("$sort", bson.D("w_warehouse_name", 1, "i_item_id", 1)),
		bson.D("$out", out),
	)
	return stages
}

// query46Pipeline builds the Query 46 pipeline; withMatch controls the
// leading predicate stage (denormalized) versus semi-join filtering
// (normalized).
func query46Pipeline(p Params, out string, withMatch bool) []*bson.Doc {
	var stages []*bson.Doc
	if withMatch {
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
		stages = append(stages, bson.D("$match", bson.D("$and", bson.A(
			bson.D("ss_store_sk.s_city", bson.D("$in", cities)),
			bson.D("ss_sold_date_sk.d_dow", bson.D("$in", dows)),
			bson.D("ss_sold_date_sk.d_year", bson.D("$in", years)),
			bson.D("$or", bson.A(
				bson.D("ss_hdemo_sk.hd_dep_count", p.DepCount),
				bson.D("ss_hdemo_sk.hd_vehicle_count", p.VehicleCount),
			)),
			bson.D("ss_addr_sk.ca_address_sk", bson.D("$exists", true)),
			bson.D("ss_customer_sk.c_customer_sk", bson.D("$exists", true)),
		))))
	}
	stages = append(stages,
		bson.D("$project", bson.D(
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
		)),
		bson.D("$match", bson.D("value", true)),
		bson.D("$group", bson.D(
			bson.IDKey, bson.D(
				"ss_ticket_number", "$ss_ticket_number",
				"ss_customer_sk", "$ss_customer_sk",
				"ss_addr_sk", "$ss_addr_sk",
				"ca_city", "$ca_city",
				"bought_city", "$bought_city",
				"c_last_name", "$c_last_name",
				"c_first_name", "$c_first_name",
			),
			"amt", bson.D("$sum", "$amt"),
			"profit", bson.D("$sum", "$profit"),
		)),
		bson.D("$project", bson.D(
			bson.IDKey, 0,
			"c_last_name", "$_id.c_last_name",
			"c_first_name", "$_id.c_first_name",
			"ca_city", "$_id.ca_city",
			"bought_city", "$_id.bought_city",
			"ss_ticket_number", "$_id.ss_ticket_number",
			"amt", 1,
			"profit", 1,
		)),
		bson.D("$sort", bson.D(
			"c_last_name", 1,
			"c_first_name", 1,
			"ca_city", 1,
			"bought_city", 1,
			"ss_ticket_number", 1,
		)),
		bson.D("$out", out),
	)
	return stages
}

// query50DenormPipeline reads the denormalized store_sales collection where
// the matching denormalized store_returns document is embedded under
// denorm.ReturnField.
func query50DenormPipeline(p Params, out string) []*bson.Doc {
	returnedDateSk := "$" + denorm.ReturnField + ".sr_returned_date_sk.d_date_sk"
	stages := []*bson.Doc{
		bson.D("$match", bson.D("$and", bson.A(
			bson.D(denorm.ReturnField+".sr_returned_date_sk.d_year", p.ReturnYear),
			bson.D(denorm.ReturnField+".sr_returned_date_sk.d_moy", p.ReturnMonth),
			bson.D("ss_store_sk.s_store_sk", bson.D("$exists", true)),
			bson.D("ss_sold_date_sk.d_date_sk", bson.D("$exists", true)),
		))),
		bson.D("$project", bson.D(
			"diff", bson.D("$subtract", bson.A(returnedDateSk, "$ss_sold_date_sk.d_date_sk")),
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
	return append(stages, query50BucketStages(out)...)
}

// query50BucketStages groups day-difference buckets per store; shared by both
// data models once a "diff" field and flat s_* store fields exist.
func query50BucketStages(out string) []*bson.Doc {
	bucket := func(cond *bson.Doc) *bson.Doc {
		return bson.D("$sum", bson.D("$cond", bson.A(cond, 1, 0)))
	}
	return []*bson.Doc{
		bson.D("$group", bson.D(
			bson.IDKey, bson.D(
				"store", "$s_store_name",
				"company", "$s_company_id",
				"str_num", "$s_street_number",
				"str_name", "$s_street_name",
				"str_type", "$s_street_type",
				"suite_num", "$s_suite_number",
				"city", "$s_city",
				"county", "$s_county",
				"state", "$s_state",
				"zip", "$s_zip",
			),
			"30 days", bucket(bson.D("$lte", bson.A("$diff", 30))),
			"31-60 days", bucket(bson.D("$and", bson.A(
				bson.D("$gt", bson.A("$diff", 30)), bson.D("$lte", bson.A("$diff", 60))))),
			"61-90 days", bucket(bson.D("$and", bson.A(
				bson.D("$gt", bson.A("$diff", 60)), bson.D("$lte", bson.A("$diff", 90))))),
			"91-120 days", bucket(bson.D("$and", bson.A(
				bson.D("$gt", bson.A("$diff", 90)), bson.D("$lte", bson.A("$diff", 120))))),
			">120 days", bucket(bson.D("$gt", bson.A("$diff", 120))),
		)),
		bson.D("$project", bson.D(
			bson.IDKey, 0,
			"s_store_name", "$_id.store",
			"s_company_id", "$_id.company",
			"s_street_number", "$_id.str_num",
			"s_street_name", "$_id.str_name",
			"s_street_type", "$_id.str_type",
			"s_suite_number", "$_id.suite_num",
			"s_city", "$_id.city",
			"s_county", "$_id.county",
			"s_state", "$_id.state",
			"s_zip", "$_id.zip",
			"30 days", 1, "31-60 days", 1, "61-90 days", 1, "91-120 days", 1, ">120 days", 1,
		)),
		bson.D("$sort", bson.D(
			"s_store_name", 1, "s_company_id", 1, "s_street_number", 1, "s_street_name", 1,
			"s_street_type", 1, "s_suite_number", 1, "s_city", 1, "s_county", 1, "s_state", 1, "s_zip", 1,
		)),
		bson.D("$out", out),
	}
}

// shiftDate returns an ISO date days away from an ISO pivot date, using the
// generated calendar.
func shiftDate(iso string, days int) string {
	off, err := tpcds.OffsetForDate(iso)
	if err != nil {
		return iso
	}
	return tpcds.DateForOffset(off + days).Format("2006-01-02")
}
