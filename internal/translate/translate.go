// Package translate implements the thesis' query-translation algorithm for
// the normalized data model (Figure 4.8). A SQL-style analytical query is
// expressed as a Plan and executed in the fixed order the algorithm
// prescribes:
//
//  1. query every dimension collection with a where clause and collect the
//     primary keys of the matching documents,
//  2. semi-join the fact collection against those key lists with $in and
//     store the surviving fact documents in an intermediate collection,
//  3. embed (EmbedDocuments, Figure 4.7) only the dimension collections whose
//     attributes the aggregation needs,
//  4. run the aggregation pipeline over the embedded intermediate collection
//     and store the result in an output collection.
//
// Step 3 uses denorm's set-oriented embedding (per embedding one aggregate
// for the referenced keys, one find and the updates in bulk), so a plan costs
// O(filters + embeddings) store calls however many rows its dimensions hold.
package translate

import (
	"fmt"
	"time"

	"docstore/internal/bson"
	"docstore/internal/denorm"
	"docstore/internal/driver"
	"docstore/internal/storage"
)

// DimFilter is one dimension collection queried by its where clause
// (step 1) and semi-joined into the fact collection (step 2).
type DimFilter struct {
	// Dimension is the dimension collection name.
	Dimension string
	// FKField is the fact collection field referencing the dimension.
	FKField string
	// PKField is the dimension's primary key field.
	PKField string
	// Where is the dimension's filter; nil selects every document (the
	// algorithm still semi-joins, which then only removes fact documents with
	// dangling references).
	Where *bson.Doc
}

// Plan is a translated analytical query against the normalized model.
type Plan struct {
	// Name identifies the query ("query7").
	Name string
	// Fact is the fact collection the query reads.
	Fact string
	// Filters are the semi-joined dimensions.
	Filters []DimFilter
	// Embed lists the dimensions embedded into the intermediate collection
	// because the aggregation uses their attributes.
	Embed []denorm.Embedding
	// Aggregation is the pipeline run over the embedded intermediate
	// collection; it should not contain a $out stage (the runner adds one for
	// Output).
	Aggregation []*bson.Doc
	// Intermediate is the intermediate collection name; defaults to
	// "<fact>_<name>_intermediate".
	Intermediate string
	// Output is the final collection name; defaults to "<name>_output".
	Output string
	// KeepIntermediate leaves the intermediate collection in place (the
	// thesis notes its storage cost); when false the runner drops it.
	KeepIntermediate bool
}

// Result reports the execution of a Plan.
type Result struct {
	Docs []*bson.Doc
	// IntermediateDocs is the size of the semi-joined fact subset.
	IntermediateDocs int
	// Phase durations.
	FilterDims time.Duration
	SemiJoin   time.Duration
	Embedding  time.Duration
	Aggregate  time.Duration
	Total      time.Duration
}

func (p *Plan) intermediateName() string {
	if p.Intermediate != "" {
		return p.Intermediate
	}
	return fmt.Sprintf("%s_%s_intermediate", p.Fact, p.Name)
}

func (p *Plan) outputName() string {
	if p.Output != "" {
		return p.Output
	}
	return p.Name + "_output"
}

// Run executes the plan against a deployment.
func Run(store driver.Store, p Plan) (Result, error) {
	var res Result
	start := time.Now()

	// Step 1: filter each dimension and collect the primary keys (the
	// ArrayList per dimension of Figure 4.8).
	phase := time.Now()
	type keyList struct {
		fk   string
		keys []any
	}
	var lists []keyList
	for _, f := range p.Filters {
		if f.Where == nil {
			continue
		}
		dimDocs, err := store.Find(f.Dimension, f.Where, storage.FindOptions{})
		if err != nil {
			return res, fmt.Errorf("translate: filtering %s: %w", f.Dimension, err)
		}
		keys := make([]any, 0, len(dimDocs))
		for _, d := range dimDocs {
			if pk, ok := d.Get(f.PKField); ok {
				keys = append(keys, pk)
			}
		}
		lists = append(lists, keyList{fk: f.FKField, keys: keys})
	}
	res.FilterDims = time.Since(phase)

	// Step 2: semi-join the fact collection with $in over each key list and
	// store the surviving documents in the intermediate collection.
	phase = time.Now()
	semiJoin := bson.NewDoc(len(lists))
	for _, l := range lists {
		semiJoin.Set(l.fk, bson.D("$in", l.keys))
	}
	factDocs, err := store.Find(p.Fact, semiJoin, storage.FindOptions{})
	if err != nil {
		return res, fmt.Errorf("translate: semi-joining %s: %w", p.Fact, err)
	}
	intermediate := p.intermediateName()
	store.DropCollection(intermediate)
	if !p.KeepIntermediate {
		// On every exit, error paths included.
		defer store.DropCollection(intermediate)
	}
	batch := make([]*bson.Doc, 0, len(factDocs))
	for _, d := range factDocs {
		clone := d.Clone()
		clone.Delete(bson.IDKey)
		batch = append(batch, clone)
	}
	if len(batch) > 0 {
		if _, err := store.InsertMany(intermediate, batch); err != nil {
			return res, fmt.Errorf("translate: writing intermediate collection: %w", err)
		}
	}
	res.IntermediateDocs = len(batch)
	res.SemiJoin = time.Since(phase)

	// Step 3: embed the dimensions whose attributes the aggregation uses.
	phase = time.Now()
	for _, emb := range p.Embed {
		if _, err := denorm.EmbedDocuments(store, intermediate, emb); err != nil {
			return res, err
		}
	}
	res.Embedding = time.Since(phase)

	// Step 4: aggregate the embedded intermediate collection into the output
	// collection.
	phase = time.Now()
	stages := append(append([]*bson.Doc(nil), p.Aggregation...), bson.D("$out", p.outputName()))
	docs, err := store.Aggregate(intermediate, stages)
	if err != nil {
		return res, fmt.Errorf("translate: aggregating %s: %w", intermediate, err)
	}
	res.Aggregate = time.Since(phase)
	res.Docs = docs
	res.Total = time.Since(start)
	return res, nil
}
