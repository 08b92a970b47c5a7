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
//
// A plan waits once per dependency, not once per call. The dimension finds of
// step 1 depend on nothing and are issued together. Step 2 is one server-side
// aggregate, {$match: semi-join} then {$out: intermediate}, so the client never
// sends the fact subset back. Step 3 runs in levels: the embeddings of one level
// run together, and an embedding whose foreign key lies inside another's
// embedded document (q46's customer address, under the customer) waits for
// the level before. Each step starts once the one before it has finished.
package translate

import (
	"fmt"
	"strings"
	"sync"
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
	// Phase durations. FilterDims and Embedding are wall time over calls
	// that overlap, not the sum of the calls.
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

// Run executes the plan against a deployment. It returns once every call it
// started has returned; when calls that ran together fail, the error is the
// one of the first in plan order.
func Run(store driver.Store, p Plan) (Result, error) {
	var res Result
	start := time.Now()

	// Step 1: filter each dimension and collect the primary keys (the
	// ArrayList per dimension of Figure 4.8), all filters at once.
	phase := time.Now()
	var filters []DimFilter
	for _, f := range p.Filters {
		if f.Where != nil {
			filters = append(filters, f)
		}
	}
	keys := make([][]any, len(filters))
	err := together(len(filters), func(i int) error {
		f := filters[i]
		dimDocs, err := store.Find(f.Dimension, f.Where, storage.FindOptions{})
		if err != nil {
			return fmt.Errorf("translate: filtering %s: %w", f.Dimension, err)
		}
		keys[i] = make([]any, 0, len(dimDocs))
		for _, d := range dimDocs {
			if pk, ok := d.Get(f.PKField); ok {
				keys[i] = append(keys[i], pk)
			}
		}
		return nil
	})
	res.FilterDims = time.Since(phase)
	if err != nil {
		return res, err
	}

	// Step 2: semi-join the fact collection with $in over each key list and
	// store the surviving documents in the intermediate collection, on the
	// server: $out replaces whatever the collection held.
	phase = time.Now()
	semiJoin := bson.NewDoc(len(filters))
	for i, f := range filters {
		semiJoin.Set(f.FKField, bson.D("$in", keys[i]))
	}
	intermediate := p.intermediateName()
	factDocs, err := store.Aggregate(p.Fact, []*bson.Doc{bson.D("$match", semiJoin), bson.D("$out", intermediate)})
	if err != nil {
		return res, fmt.Errorf("translate: semi-joining %s: %w", p.Fact, err)
	}
	if !p.KeepIntermediate {
		// On every exit, error paths included.
		defer store.DropCollection(intermediate)
	}
	res.IntermediateDocs = len(factDocs)
	res.SemiJoin = time.Since(phase)

	// Step 3: embed the dimensions whose attributes the aggregation uses, one
	// level at a time.
	phase = time.Now()
	for _, level := range embeddingLevels(p.Embed) {
		err := together(len(level), func(i int) error {
			_, err := denorm.EmbedDocuments(store, intermediate, level[i])
			return err
		})
		if err != nil {
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

// together runs call(0) … call(n-1) concurrently and returns once all of them
// have returned, with the error of the lowest i that failed.
func together(n int, call func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			errs[i] = call(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// embeddingLevels splits the embeddings into levels that run one after
// another. A level holds every embedding not yet run whose foreign key is not
// equal to, a prefix of, or under the foreign key of an earlier one still
// pending, so no embedding of a level reads or writes what another writes.
func embeddingLevels(embs []denorm.Embedding) [][]denorm.Embedding {
	var levels [][]denorm.Embedding
	for pending := embs; len(pending) > 0; {
		var level, rest []denorm.Embedding
		for i, e := range pending {
			if dependsOnAny(e, pending[:i]) {
				rest = append(rest, e)
			} else {
				level = append(level, e)
			}
		}
		levels = append(levels, level)
		pending = rest
	}
	return levels
}

// dependsOnAny reports whether e's foreign key shares a path with the key of
// any of earlier: the same field, or one inside the other.
func dependsOnAny(e denorm.Embedding, earlier []denorm.Embedding) bool {
	for _, o := range earlier {
		a, b := e.FKField, o.FKField
		if len(a) > len(b) {
			a, b = b, a
		}
		if strings.HasPrefix(b, a) && (len(a) == len(b) || b[len(a)] == '.') {
			return true
		}
	}
	return false
}
