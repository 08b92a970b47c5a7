// Package denorm implements the thesis' denormalization algorithms:
// CreateDenormalizedCollection (Figure 4.6) joins every dimension collection
// into a fact collection, and EmbedDocuments (Figure 4.7) performs one such
// join by replacing the fact's foreign-key value with the referenced
// dimension document (minus its _id).
//
// The figure walks a HashMap of primary key → dimension document and sends
// one multi-document update per key, so an embedding costs one round trip per
// dimension row whether or not any fact document references it. This package
// runs the same join set-oriented: one aggregate for the keys the fact
// actually references, one find for those dimension documents, and the
// figure's updates in bulk writes of embedChunk. The collection ends in the
// same state and the same number of documents is reported modified; what
// changes is that round trips grow with the number of embeddings, not with
// the size of the dimensions.
package denorm

import (
	"fmt"
	"time"

	"docstore/internal/bson"
	"docstore/internal/driver"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/tpcds"
)

// Embedding names one dimension to embed into a fact collection: the fact's
// foreign-key field (possibly dotted, for nested embeddings) is replaced by
// the dimension document whose primary key matches it.
type Embedding struct {
	Dimension string // dimension collection name
	FKField   string // field in the fact collection holding the reference
	PKField   string // primary key field of the dimension collection
}

// embedChunk is how many $set multi-updates ride in one BulkWrite. It bounds
// the size of a single request (each op carries a whole dimension document)
// while keeping the number of round trips per embedding at
// ceil(referenced keys / embedChunk) instead of one per dimension row.
const embedChunk = 1000

// EmbedDocuments is Figure 4.7 as a set-oriented hash join. The figure builds
// a HashMap of every dimension primary key and issues one multi-update per
// entry; here the target collection is first asked which keys it references
// (one $group over the foreign-key path), only those dimension documents are
// fetched ({pk: {$in: keys}}), and the same {query: fk=pk, update: $set
// fk=doc, upsert:false, multi:true} updates ship as unordered bulk writes.
// A key no target document references would match nothing, and each target
// document matches at most one update (once embedded, its fk is no longer a
// key), so the final collection state and the returned number of modified
// documents are those of the figure, whatever the order the updates run in.
func EmbedDocuments(store driver.Store, fact string, emb Embedding) (int, error) {
	groups, err := store.Aggregate(fact, []*bson.Doc{bson.D("$group", bson.D(bson.IDKey, "$"+emb.FKField))})
	if err != nil {
		return 0, fmt.Errorf("denorm: reading the %s keys of %s: %w", emb.FKField, fact, err)
	}
	if len(groups) == 0 {
		return 0, nil
	}
	keys := make([]any, len(groups))
	for i, g := range groups {
		keys[i], _ = g.Get(bson.IDKey)
	}
	dimDocs, err := store.Find(emb.Dimension, bson.D(emb.PKField, bson.D("$in", keys)), storage.FindOptions{})
	if err != nil {
		return 0, fmt.Errorf("denorm: reading dimension %s: %w", emb.Dimension, err)
	}
	ops := make([]storage.WriteOp, 0, len(dimDocs))
	for _, d := range dimDocs {
		pk, ok := d.Get(emb.PKField)
		if !ok {
			continue
		}
		ops = append(ops, embedOp(bson.D(emb.FKField, pk), emb.FKField, d))
	}
	modified, err := applyEmbedOps(store, fact, ops)
	if err != nil {
		return modified, fmt.Errorf("denorm: embedding %s into %s: %w", emb.Dimension, fact, err)
	}
	return modified, nil
}

// embedOp is one Figure 4.7 update: every document matching filter gets a
// copy of doc, minus its _id, under field.
func embedOp(filter *bson.Doc, field string, doc *bson.Doc) storage.WriteOp {
	embedded := doc.Clone()
	embedded.Delete(bson.IDKey)
	return storage.UpdateWriteOp(query.UpdateSpec{
		Query:  filter,
		Update: bson.D("$set", bson.D(field, embedded)),
		Multi:  true,
	})
}

// applyEmbedOps ships the updates in unordered chunks of embedChunk and
// returns the number of documents modified. It stops at the first chunk
// that reports an error.
func applyEmbedOps(store driver.Store, coll string, ops []storage.WriteOp) (int, error) {
	modified := 0
	for len(ops) > 0 {
		n := min(len(ops), embedChunk)
		res := store.BulkWrite(coll, ops[:n], storage.BulkOptions{})
		modified += res.Modified
		if err := res.FirstError(); err != nil {
			return modified, err
		}
		ops = ops[n:]
	}
	return modified, nil
}

// CreateDenormalizedCollection is Figure 4.6: embed every listed dimension
// into the fact collection, in order. It returns the total number of
// modifications and the elapsed time.
func CreateDenormalizedCollection(store driver.Store, fact string, embeddings []Embedding) (int, time.Duration, error) {
	start := time.Now()
	total := 0
	for _, emb := range embeddings {
		n, err := EmbedDocuments(store, fact, emb)
		if err != nil {
			return total, time.Since(start), err
		}
		total += n
	}
	return total, time.Since(start), nil
}

// FactEmbeddings returns the dimension embeddings for one of the three fact
// collections the queries use, derived from the schema's foreign keys
// (excluding the time dimension, which no benchmark query touches).
func FactEmbeddings(schema *tpcds.Schema, fact string) []Embedding {
	t := schema.Table(fact)
	if t == nil {
		return nil
	}
	var out []Embedding
	for _, fk := range t.ForeignKeys {
		if fk.RefTable == "time_dim" || fk.RefTable == "reason" {
			continue
		}
		out = append(out, Embedding{Dimension: fk.RefTable, FKField: fk.Column, PKField: fk.RefColumn})
	}
	return out
}

// DatasetResult reports the work done to denormalize the three fact
// collections of the benchmark.
type DatasetResult struct {
	EmbeddedDocuments int
	Duration          time.Duration
}

// DenormalizeDataset builds the denormalized data model used by Experiments 3
// and 6: the store_sales, store_returns and inventory fact collections with
// their dimension documents embedded, plus the nested embeddings the
// Appendix B pipelines rely on (customer_address inside customer inside
// store_sales for Query 46, and the denormalized store_returns document
// embedded at ss_ticket_number for Query 50).
func DenormalizeDataset(store driver.Store, schema *tpcds.Schema) (DatasetResult, error) {
	start := time.Now()
	var res DatasetResult

	// store_returns first: its embedded form is itself embedded into
	// store_sales below.
	for _, fact := range []string{"store_returns", "inventory"} {
		n, _, err := CreateDenormalizedCollection(store, fact, FactEmbeddings(schema, fact))
		if err != nil {
			return res, err
		}
		res.EmbeddedDocuments += n
	}

	// Query 50 joins store_sales to store_returns on (ticket, item,
	// customer); the denormalized model materializes that join by embedding
	// the matching (already denormalized) return document into the sale.
	n, err := EmbedReturnsIntoSales(store)
	if err != nil {
		return res, err
	}
	res.EmbeddedDocuments += n

	// Now the store_sales dimensions, including the nested
	// customer -> customer_address embedding Query 46 needs.
	n, _, err = CreateDenormalizedCollection(store, "store_sales", FactEmbeddings(schema, "store_sales"))
	if err != nil {
		return res, err
	}
	res.EmbeddedDocuments += n
	n, err = EmbedDocuments(store, "store_sales", Embedding{
		Dimension: "customer_address",
		FKField:   "ss_customer_sk.c_current_addr_sk",
		PKField:   "ca_address_sk",
	})
	if err != nil {
		return res, err
	}
	res.EmbeddedDocuments += n

	res.Duration = time.Since(start)
	return res, nil
}

// ReturnField is the store_sales field under which the matching denormalized
// store_returns document is embedded. The thesis' Appendix B script replaces
// ss_ticket_number itself; this implementation keeps the ticket number intact
// (Query 46 groups by it) and embeds the return under a dedicated field,
// which Query 50's pipeline navigates instead.
const ReturnField = "ss_return"

// EnsureDenormalizedIndexes creates the secondary indexes on the embedded
// document paths the Appendix B pipelines filter on. §2.1.2 notes indexes may
// be declared on any sub-field of a document; the denormalized experiments
// rely on exactly that.
func EnsureDenormalizedIndexes(store driver.Store) error {
	specs := map[string][]*bson.Doc{
		"store_sales": {
			bson.D("ss_cdemo_sk.cd_education_status", 1),
			bson.D("ss_cdemo_sk.cd_gender", 1),
			bson.D("ss_sold_date_sk.d_year", 1),
			bson.D("ss_store_sk.s_city", 1),
			bson.D(ReturnField+".sr_returned_date_sk.d_year", 1),
		},
		"inventory": {
			bson.D("inv_item_sk.i_current_price", 1),
			bson.D("inv_date_sk.d_date", 1),
		},
	}
	for coll, list := range specs {
		for _, spec := range list {
			if err := store.EnsureIndex(coll, spec, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// EmbedReturnsIntoSales embeds each denormalized store_returns document into
// its originating store_sales document under ReturnField. Sales without a
// matching return simply never match the Query 50 predicates.
func EmbedReturnsIntoSales(store driver.Store) (int, error) {
	returns, err := store.Find("store_returns", nil, storage.FindOptions{})
	if err != nil {
		return 0, fmt.Errorf("denorm: reading store_returns: %w", err)
	}
	ops := make([]storage.WriteOp, 0, len(returns))
	for _, r := range returns {
		ticket, ok1 := r.Get("sr_ticket_number")
		// store_returns has already been denormalized, so its item and
		// customer references may themselves be embedded documents; recover
		// the scalar join keys from them.
		item, ok2 := scalarKey(r, "sr_item_sk", "i_item_sk")
		customer, ok3 := scalarKey(r, "sr_customer_sk", "c_customer_sk")
		if !ok1 || !ok2 || !ok3 {
			continue
		}
		ops = append(ops, embedOp(bson.D(
			"ss_ticket_number", ticket,
			"ss_item_sk", item,
			"ss_customer_sk", customer,
		), ReturnField, r))
	}
	modified, err := applyEmbedOps(store, "store_sales", ops)
	if err != nil {
		return modified, fmt.Errorf("denorm: embedding store_returns into store_sales: %w", err)
	}
	return modified, nil
}

// scalarKey returns the scalar value of a (possibly already embedded)
// reference field: the raw value when it is still a scalar, or the embedded
// document's primary key when the dimension has been embedded.
func scalarKey(d *bson.Doc, field, pkField string) (any, bool) {
	v, ok := d.Get(field)
	if !ok {
		return nil, false
	}
	if sub, isDoc := v.(*bson.Doc); isDoc {
		return sub.Get(pkField)
	}
	return v, true
}
