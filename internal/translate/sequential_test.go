package translate

import (
	"fmt"

	"docstore/internal/bson"
	"docstore/internal/denorm"
	"docstore/internal/driver"
	"docstore/internal/storage"
)

// RunSequential is runSequential for the external test package, which can
// import the queries whose plans it runs.
var RunSequential = runSequential

// runSequential is Figure 4.8 one call after another: the specification Run
// is checked against. The filters run in plan order, the semi-joined fact
// documents come to the client and go back, without their _id, through
// InsertMany, and the embeddings run in plan order.
func runSequential(store driver.Store, p Plan) (Result, error) {
	var res Result
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

	for _, emb := range p.Embed {
		if _, err := denorm.EmbedDocuments(store, intermediate, emb); err != nil {
			return res, err
		}
	}

	stages := append(append([]*bson.Doc(nil), p.Aggregation...), bson.D("$out", p.outputName()))
	docs, err := store.Aggregate(intermediate, stages)
	if err != nil {
		return res, fmt.Errorf("translate: aggregating %s: %w", intermediate, err)
	}
	res.Docs = docs
	return res, nil
}
