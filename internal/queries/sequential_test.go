package queries

import (
	"docstore/internal/bson"
	"docstore/internal/denorm"
	"docstore/internal/driver"
	"docstore/internal/storage"
)

// RunQuery50Sequential is runQuery50Sequential for the external test
// package, which can build the sharded deployments it runs on.
var RunQuery50Sequential = runQuery50Sequential

// runQuery50Sequential is Query 50's normalized run one call after another:
// the specification runQuery50Normalized is checked against. The joined
// documents are written, then the store dimension is embedded by
// denorm.EmbedDocuments, whose keys come from a $group on the server.
func runQuery50Sequential(store driver.Store, p Params) ([]*bson.Doc, error) {
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

	returns, err := store.Find("store_returns", bson.D("sr_returned_date_sk", bson.D("$in", dateKeys)), storage.FindOptions{})
	if err != nil {
		return nil, err
	}
	returnByKey := make(map[string]*bson.Doc, len(returns))
	ticketSet := make(map[string]bool)
	var tickets []any
	for _, r := range returns {
		t, _ := r.Get("sr_ticket_number")
		i, _ := r.Get("sr_item_sk")
		c, _ := r.Get("sr_customer_sk")
		returnByKey[string(joinKey(nil, t, i, c))] = r
		if ts := string(bson.AppendKey(nil, t)); !ticketSet[ts] {
			ticketSet[ts] = true
			tickets = append(tickets, t)
		}
	}

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
		r, ok := returnByKey[string(joinKey(nil, t, i, c))]
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

	if _, err := denorm.EmbedDocuments(store, intermediate, denorm.Embedding{
		Dimension: "store", FKField: "ss_store_sk", PKField: "s_store_sk",
	}); err != nil {
		return nil, err
	}
	return store.Aggregate(intermediate, query50NormalizedStages())
}
