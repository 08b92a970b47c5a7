package aggregate_test

import (
	"bytes"
	"testing"

	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/denorm"
	"docstore/internal/driver"
	"docstore/internal/migrate"
	"docstore/internal/mongod"
	"docstore/internal/queries"
	"docstore/internal/storage"
	"docstore/internal/tpcds"
)

// checkedStore compares, for every aggregation that passes through it, the
// compiled pipeline with the reference interpreter over the same input: the
// collection's documents in stored order. The aggregation itself then runs
// on the store as usual, so that multi-step executions proceed.
type checkedStore struct {
	driver.Store
	t        *testing.T
	compared int
	rows     int
}

func (s *checkedStore) Aggregate(coll string, stages []*bson.Doc) ([]*bson.Doc, error) {
	s.t.Helper()
	input, err := s.Store.Find(coll, nil, storage.FindOptions{})
	if err != nil {
		s.t.Fatal(err)
	}
	want, wantErr := aggregate.ReferenceRun(stages, input, aggregate.NewSliceEnv())
	p, err := aggregate.Parse(stages)
	if err != nil {
		s.t.Fatalf("Parse(%v): %v", stages, err)
	}
	got, gotErr := p.Run(input, aggregate.NewSliceEnv())
	if gotErr != nil || wantErr != nil || len(got) != len(want) {
		s.t.Fatalf("%s %v: compiled %d rows, %v; reference %d rows, %v", coll, stages, len(got), gotErr, len(want), wantErr)
	}
	for i := range got {
		if !bytes.Equal(bson.Marshal(got[i]), bson.Marshal(want[i])) {
			s.t.Fatalf("%s %v: row %d\ncompiled  %v\nreference %v", coll, stages, i, got[i], want[i])
		}
	}
	s.compared++
	s.rows += len(got)
	return s.Store.Aggregate(coll, stages)
}

// TestCompiledEquivalenceOnTheQueries: the fixed cases beside the generated
// ones. Every pipeline Queries 7, 21, 46 and 50 run, in the denormalized and
// in the normalized data model (the embedding's $group and Query 50's
// two-fact join included), gives the reference interpreter's rows, in its
// order, to the byte, over a small generated dataset.
func TestCompiledEquivalenceOnTheQueries(t *testing.T) {
	gen := tpcds.NewGenerator(tpcds.ScaleSmall.WithDivisor(4000), 3)
	load := func(name string) *checkedStore {
		store := driver.NewStandalone(mongod.NewServer(mongod.Options{}).Database(name))
		if _, err := migrate.LoadDataset(store, gen); err != nil {
			t.Fatal(err)
		}
		if err := migrate.EnsureQueryIndexes(store, gen.Schema()); err != nil {
			t.Fatal(err)
		}
		return &checkedStore{Store: store, t: t}
	}
	normalized, denormalized := load("norm"), load("denorm")
	if _, err := denorm.DenormalizeDataset(denormalized, gen.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := denorm.EnsureDenormalizedIndexes(denormalized); err != nil {
		t.Fatal(err)
	}
	params := queries.DefaultParams()
	for _, q := range queries.All() {
		before := normalized.compared + denormalized.compared
		if _, _, err := queries.RunNormalized(normalized, q, params); err != nil {
			t.Fatalf("query %d normalized: %v", q.ID, err)
		}
		if _, _, err := queries.RunDenormalized(denormalized, q, params); err != nil {
			t.Fatalf("query %d denormalized: %v", q.ID, err)
		}
		if normalized.compared+denormalized.compared < before+2 {
			t.Fatalf("query %d: no pipeline of one data model passed through the check", q.ID)
		}
	}
	t.Logf("compared %d pipelines producing %d rows", normalized.compared+denormalized.compared, normalized.rows+denormalized.rows)
	if normalized.rows == 0 || denormalized.rows == 0 {
		t.Fatalf("the queries selected nothing (%d and %d rows); the dataset is too small to check them", normalized.rows, denormalized.rows)
	}
}
