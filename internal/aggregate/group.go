package aggregate

import (
	"fmt"

	"docstore/internal/bson"
)

// groupStage implements $group: documents are bucketed by the value of the
// _id expression and each accumulator folds over the bucket's documents.
type groupStage struct {
	// The _id expression, compiled. When it is a document literal — the
	// compound keys of Queries 21 and 46 — idKeys names its fields and id
	// holds their expressions, so that a row is bucketed by its parts and
	// the document is built only for the first row of a bucket.
	id           []expr
	idKeys       []string
	idIsDoc      bool
	accumulators []accumulator
}

// accumulator is one output field of a $group: the operator's two functions
// and its compiled argument (nil for $count, which has none).
type accumulator struct {
	field string
	arg   expr
	accumulatorOp
}

type accumulatorOp struct {
	fold   func(st *accumulatorState, v any)
	result func(st *accumulatorState) any
}

// accumulatorState is one accumulator's state in one bucket.
type accumulatorState struct {
	total  number // $sum, $avg
	count  int64  // $avg, $count
	val    any    // $min, $max, $first, $last
	has    bool   // val is set
	values []any  // $push, $addToSet
}

func (st *accumulatorState) value() any { return st.val }

func (st *accumulatorState) list() any {
	if st.values == nil {
		return []any{}
	}
	return st.values
}

// extreme keeps the value that compares sign-most: the least for -1, the
// greatest for +1. Nulls are skipped.
func extreme(sign int) func(st *accumulatorState, v any) {
	return func(st *accumulatorState, v any) {
		if v != nil && (!st.has || bson.Compare(v, st.val)*sign > 0) {
			st.val, st.has = v, true
		}
	}
}

var accumulatorOps = map[string]accumulatorOp{
	"$sum": {
		fold:   func(st *accumulatorState, v any) { st.total.add(v) }, // non-numbers add nothing
		result: func(st *accumulatorState) any { return st.total.value() },
	},
	"$avg": {
		fold: func(st *accumulatorState, v any) {
			if st.total.add(v) {
				st.count++
			}
		},
		result: func(st *accumulatorState) any {
			if st.count == 0 {
				return nil
			}
			return st.total.float() / float64(st.count)
		},
	},
	"$count": {
		fold:   func(st *accumulatorState, _ any) { st.count++ },
		result: func(st *accumulatorState) any { return st.count },
	},
	"$min": {fold: extreme(-1), result: (*accumulatorState).value},
	"$max": {fold: extreme(+1), result: (*accumulatorState).value},
	"$first": {
		fold: func(st *accumulatorState, v any) {
			if !st.has {
				st.val, st.has = v, true
			}
		},
		result: (*accumulatorState).value,
	},
	"$last": {
		fold:   func(st *accumulatorState, v any) { st.val = v },
		result: (*accumulatorState).value,
	},
	"$push": {
		fold:   func(st *accumulatorState, v any) { st.values = append(st.values, v) },
		result: (*accumulatorState).list,
	},
	"$addToSet": {
		fold: func(st *accumulatorState, v any) {
			for _, existing := range st.values {
				if bson.Compare(existing, v) == 0 {
					return
				}
			}
			st.values = append(st.values, v)
		},
		result: (*accumulatorState).list,
	},
}

func parseGroupStage(spec *bson.Doc) (Stage, error) {
	idExpr, ok := spec.Get(bson.IDKey)
	if !ok {
		return nil, fmt.Errorf("$group requires an _id expression")
	}
	g := &groupStage{}
	parts := []any{idExpr}
	if doc, isDoc := idExpr.(*bson.Doc); isDoc {
		if _, _, isOp := singleOperator(doc); !isOp {
			g.idIsDoc, g.idKeys, parts = true, doc.Keys(), parts[:0]
			for _, f := range doc.Fields() {
				parts = append(parts, f.Value)
			}
		}
	}
	var err error
	if g.id, err = compileAll(parts); err != nil {
		return nil, fmt.Errorf("_id: %w", err)
	}
	for _, f := range spec.Fields() {
		if f.Key == bson.IDKey {
			continue
		}
		accDoc, ok := f.Value.(*bson.Doc)
		if !ok || accDoc.Len() != 1 {
			return nil, fmt.Errorf("accumulator for %q must be a single-operator document", f.Key)
		}
		name, arg := accDoc.Fields()[0].Key, accDoc.Fields()[0].Value
		acc := accumulator{field: f.Key}
		if acc.accumulatorOp, ok = accumulatorOps[name]; !ok {
			return nil, fmt.Errorf("unknown accumulator %s for %q", name, f.Key)
		}
		if name != "$count" {
			if acc.arg, err = compileExpr(arg); err != nil {
				return nil, fmt.Errorf("accumulator for %q: %w", f.Key, err)
			}
		}
		g.accumulators = append(g.accumulators, acc)
	}
	return g, nil
}

func (s *groupStage) Name() string { return "$group" }
func (s *groupStage) Local() bool  { return false }

func (s *groupStage) Apply(docs []*bson.Doc, _ Env) ([]*bson.Doc, error) {
	acc := s.startAccum()
	for _, d := range docs {
		if err := acc.absorb(d); err != nil {
			return nil, err
		}
	}
	return acc.finish()
}

// startAccum lets $group consume a document stream incrementally: the hash
// table of buckets is the only state kept, so a streamed group holds
// O(groups) memory instead of O(input)+O(groups).
func (s *groupStage) startAccum() docAccum {
	return &groupAccum{s: s, index: make(map[string]int), idVals: make([]any, len(s.id))}
}

// groupBucket accumulates state for one distinct _id value.
type groupBucket struct {
	id   any
	accs []accumulatorState
}

type groupAccum struct {
	s       *groupStage
	buckets []groupBucket  // in first-seen order, which is the output order
	index   map[string]int // bucket key → position in buckets
	// Scratch reused from row to row: the values of the _id parts and their
	// key. A row that lands in an existing bucket allocates nothing.
	idVals []any
	key    []byte
}

func (a *groupAccum) absorb(d *bson.Doc) error {
	s := a.s
	a.key = a.key[:0]
	for i, part := range s.id {
		v, err := part(d)
		if err != nil {
			return err
		}
		a.idVals[i] = v
		a.key = bson.AppendKey(a.key, v)
	}
	at, ok := a.index[string(a.key)]
	if !ok {
		at = len(a.buckets)
		a.index[string(a.key)] = at
		a.buckets = append(a.buckets, groupBucket{id: a.bucketID(), accs: make([]accumulatorState, len(s.accumulators))})
	}
	accs := a.buckets[at].accs
	for i := range s.accumulators {
		acc := &s.accumulators[i]
		var v any
		if acc.arg != nil {
			var err error
			if v, err = acc.arg(d); err != nil {
				return err
			}
		}
		acc.fold(&accs[i], v)
	}
	return nil
}

// bucketID builds the _id of a new bucket from the row's part values: it
// reports the first row's value, as the values a bucket collects may differ
// in representation (1 and 1.0) though not in order.
func (a *groupAccum) bucketID() any {
	if !a.s.idIsDoc {
		return a.idVals[0]
	}
	id := bson.NewDoc(len(a.idVals))
	for i, v := range a.idVals {
		id.Set(a.s.idKeys[i], v)
	}
	return id
}

func (a *groupAccum) finish() ([]*bson.Doc, error) {
	s := a.s
	out := make([]*bson.Doc, 0, len(a.buckets))
	for i := range a.buckets {
		b := &a.buckets[i]
		d := bson.NewDoc(len(s.accumulators) + 1)
		d.Set(bson.IDKey, b.id)
		for i := range s.accumulators {
			d.Set(s.accumulators[i].field, s.accumulators[i].result(&b.accs[i]))
		}
		out = append(out, d)
	}
	return out, nil
}
