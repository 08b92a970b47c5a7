package mongod

import (
	"runtime"
	"sync"

	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/storage"
)

// Parallel aggregation is the thesis' future-work item of §5.2: "individual
// threads can be used to query each collection in parallel and then perform
// aggregation on a single thread that runs after the completion of the other
// threads". AggregateParallel applies the same idea within one collection:
// the per-document prefix of the pipeline (the stages a shard could run
// independently) is executed by several workers over disjoint segments of the
// collection, and the remaining stages run single-threaded over the combined
// output.

// AggregateParallel runs an aggregation pipeline using up to workers
// goroutines for the per-document stage prefix. workers <= 0 uses GOMAXPROCS.
// The result is identical to Aggregate for every pipeline whose trailing
// stages are order-insensitive or contain an explicit $sort (all the
// benchmark queries do).
func (db *Database) AggregateParallel(coll string, stages []*bson.Doc, workers int) ([]*bson.Doc, error) {
	db.server.countOp("command")
	defer db.profile("aggregate-parallel", coll)()
	docs, err := db.aggregateParallel(coll, stages, workers)
	if err != nil {
		return nil, err
	}
	return aggregate.Drain(&resultIter{it: aggregate.FromSlice(docs)})
}

func (db *Database) aggregateParallel(coll string, stages []*bson.Doc, workers int) ([]*bson.Doc, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pipeline, err := aggregate.Parse(stages)
	if err != nil {
		return nil, err
	}
	localPart, mergePart := pipeline.Split()
	cut := localPart.Len()

	// Pull the input set. A leading $match is pushed down to the storage
	// engine exactly as in Aggregate, and excluded from the local part the
	// workers re-run.
	var input []*bson.Doc
	localStages := stages[:cut]
	if cut > 0 {
		if matchArg, ok := stages[0].Get("$match"); ok {
			if filter, isDoc := matchArg.(*bson.Doc); isDoc {
				input, err = db.Collection(coll).Find(filter, storage.FindOptions{})
				if err != nil {
					return nil, err
				}
				localStages = stages[1:cut]
			}
		}
	}
	if input == nil {
		db.Collection(coll).Scan(func(d *bson.Doc) bool {
			input = append(input, d)
			return true
		})
	}

	if workers == 1 || len(input) < 2*workers || len(localStages) == 0 {
		// Not worth splitting; degrade to the regular path over the already
		// narrowed input.
		rest, err := aggregate.Parse(append(append([]*bson.Doc(nil), localStages...), stages[cut:]...))
		if err != nil {
			return nil, err
		}
		return rest.Run(input, db.Env())
	}

	localPipeline, err := aggregate.Parse(localStages)
	if err != nil {
		return nil, err
	}
	segment := (len(input) + workers - 1) / workers
	partials := make([][]*bson.Doc, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * segment
		if lo >= len(input) {
			break
		}
		hi := lo + segment
		if hi > len(input) {
			hi = len(input)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			out, err := localPipeline.Run(input[lo:hi], nil)
			partials[w], errs[w] = out, err
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var combined []*bson.Doc
	for _, p := range partials {
		combined = append(combined, p...)
	}
	if mergePart.Len() == 0 {
		return combined, nil
	}
	mergePipeline, err := aggregate.Parse(stages[cut:])
	if err != nil {
		return nil, err
	}
	return mergePipeline.Run(combined, db.Env())
}
