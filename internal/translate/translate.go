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
// Step 3 uses denorm's set-oriented embedding (per embedding one find and the
// updates in bulk), so a plan costs O(filters + embeddings) store calls
// however many rows its dimensions hold. The keys an embedding looks up come
// from the documents step 2 returned, by the $group the server would run
// (denorm.ReferencedKeys), so they cost no call.
//
// A plan waits once per dependency, not once per call. Run compiles it into
// one list of calls, each naming the earlier calls it reads or must follow,
// and Exec starts each call once those have returned. The dimension finds of
// step 1 depend on nothing. Step 2 is one server-side aggregate, {$match:
// semi-join} then {$out: intermediate}, after all of them, so the client never
// sends the fact subset back. Step 3 is per embedding a find after the
// semi-join and a bulk write after that find; an embedding whose foreign key
// lies inside an earlier one's embedded document (q46's customer address,
// under the customer) finds after that one's find and writes after its write.
// Step 4 follows every write. The critical path of a plan (Result.Hops) is
// 1 + 1 + (embedding depth + 1) + 1 calls: the filters, the semi-join, the
// finds and writes of step 3, and the aggregation.
package translate

import (
	"fmt"
	"strings"

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
	// Hops is the plan's critical path in calls (Exec).
	Hops int
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

// Run executes the plan against a deployment as one list of calls (Exec). It
// returns once every call it started has returned; when calls fail, the error
// is the one of the first in plan order.
func Run(store driver.Store, p Plan) (Result, error) {
	var calls []Call

	// Step 1: filter each dimension and collect the primary keys (the
	// ArrayList per dimension of Figure 4.8).
	var filters []DimFilter
	for _, f := range p.Filters {
		if f.Where != nil {
			filters = append(filters, f)
		}
	}
	keys := make([][]any, len(filters))
	var filtered []int
	for i, f := range filters {
		filtered = append(filtered, len(calls))
		calls = append(calls, Call{Do: func() error {
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
		}})
	}

	// Step 2: semi-join the fact collection with $in over each key list and
	// store the surviving documents in the intermediate collection, on the
	// server: $out replaces whatever the collection held.
	intermediate := p.intermediateName()
	var factDocs []*bson.Doc
	written := false
	semiJoin := len(calls)
	calls = append(calls, Call{After: filtered, Do: func() error {
		match := bson.NewDoc(len(filters))
		for i, f := range filters {
			match.Set(f.FKField, bson.D("$in", keys[i]))
		}
		var err error
		factDocs, err = store.Aggregate(p.Fact, []*bson.Doc{bson.D("$match", match), bson.D("$out", intermediate)})
		if err != nil {
			return fmt.Errorf("translate: semi-joining %s: %w", p.Fact, err)
		}
		written = true
		return nil
	}})

	// Step 3: embed the dimensions whose attributes the aggregation uses,
	// each by a find of the dimension documents its keys name and a bulk
	// write. The keys come from the semi-joined documents (localKeys), with
	// no call. A foreign key equal to or a prefix of an earlier one's has its
	// values changed by the earlier write, so its keys are asked of the
	// server, after every earlier write at an overlapping key.
	dims := make([][]*bson.Doc, len(p.Embed))
	fetches, writes := make([]int, len(p.Embed)), make([]int, len(p.Embed))
	for i, e := range p.Embed {
		fetch, write := Call{After: []int{semiJoin}}, Call{}
		var parents []int
		onServer := false
		for j, o := range p.Embed[:i] {
			switch {
			case under(e.FKField, o.FKField):
				parents = append(parents, j)
				fetch.After = append(fetch.After, fetches[j])
			case o.FKField == e.FKField || under(o.FKField, e.FKField):
				onServer = true
			default:
				continue
			}
			write.After = append(write.After, writes[j])
		}
		if onServer {
			fetch.After = append(fetch.After, write.After...)
		}
		fetch.Do = func() error {
			var keys []any
			var err error
			if onServer {
				keys, err = denorm.StoredKeys(store, intermediate, e.FKField)
			} else {
				keys, err = localKeys(e.FKField, factDocs, parents, p.Embed, dims)
			}
			if err != nil {
				return err
			}
			dims[i], err = denorm.FetchDimension(store, e, keys)
			return err
		}
		fetches[i] = len(calls)
		calls = append(calls, fetch)
		write.After = append(write.After, fetches[i])
		write.Do = func() error {
			_, err := denorm.ApplyEmbedding(store, intermediate, e, dims[i])
			return err
		}
		writes[i] = len(calls)
		calls = append(calls, write)
	}

	// Step 4: aggregate the embedded intermediate collection into the output
	// collection.
	var res Result
	stages := append(append([]*bson.Doc(nil), p.Aggregation...), bson.D("$out", p.outputName()))
	calls = append(calls, Call{After: append(writes, semiJoin), Do: func() error {
		var err error
		res.Docs, err = store.Aggregate(intermediate, stages)
		if err != nil {
			return fmt.Errorf("translate: aggregating %s: %w", intermediate, err)
		}
		return nil
	}})

	var err error
	res.Hops, err = Exec(calls)
	if written && !p.KeepIntermediate {
		// On every exit, error paths included.
		store.DropCollection(intermediate)
	}
	res.IntermediateDocs = len(factDocs)
	return res, err
}

// localKeys is the key set of the embedding at fk: its values in the
// semi-joined documents (denorm.ReferencedKeys, the $group the server would
// run) and, for each earlier embedding in parents whose foreign key fk lies
// under (q46's ss_customer_sk.c_current_addr_sk, under ss_customer_sk), the
// values of the rest of fk's path over that embedding's dimension documents,
// since after that write the path's value comes from one or the other. The
// union may name a key twice, or one no document holds, whose update
// matches nothing.
func localKeys(fk string, docs []*bson.Doc, parents []int, embs []denorm.Embedding, dims [][]*bson.Doc) ([]any, error) {
	keys, err := denorm.ReferencedKeys(docs, fk)
	if err != nil {
		return nil, err
	}
	for _, j := range parents {
		more, err := denorm.ReferencedKeys(dims[j], fk[len(embs[j].FKField)+1:])
		if err != nil {
			return nil, err
		}
		keys = append(keys, more...)
	}
	return keys, nil
}

// under reports whether path lies strictly inside parent.
func under(path, parent string) bool {
	return len(path) > len(parent) && path[len(parent)] == '.' && strings.HasPrefix(path, parent)
}
