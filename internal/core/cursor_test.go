package core

import (
	"fmt"
	"sort"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/driver"
	"docstore/internal/queries"
)

// marshalAll renders documents to their canonical BSON bytes so result sets
// can be compared byte-for-byte (ordered) or as multisets (unordered).
func marshalAll(docs []*bson.Doc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = string(bson.Marshal(d))
	}
	return out
}

func assertSameDocs(t *testing.T, label string, got, want []*bson.Doc, ordered bool) {
	t.Helper()
	g, w := marshalAll(got), marshalAll(want)
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	if len(g) != len(w) {
		t.Fatalf("%s: got %d docs, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: doc %d differs:\n got  %v\n want %v", label, i, got[i], want[i])
		}
	}
}

// pipelineOrdered reports whether the pipeline's output order is defined:
// every benchmark pipeline ends with $sort (+$out), so results compare
// ordered; anything else compares as a multiset.
func pipelineOrdered(stages []*bson.Doc) bool {
	for _, s := range stages {
		if s.Has("$sort") {
			return true
		}
	}
	return false
}

// TestBenchmarkQueryCursorEquivalence runs every benchmark query's
// denormalized pipeline through the slice path and the cursor path on both
// deployment environments and asserts identical results — the
// cursor/slice equivalence property for queries 7/21/46/50.
func TestBenchmarkQueryCursorEquivalence(t *testing.T) {
	small, _ := testScales()
	cfg := testConfig()
	params := cfg.Params

	deployments := []ExperimentSpec{
		{Number: 3, Scale: small, Model: Denormalized, Env: StandAlone},
		{Number: 103, Scale: small, Model: Denormalized, Env: Sharded},
	}
	for _, spec := range deployments {
		d, err := Setup(spec, cfg)
		if err != nil {
			t.Fatalf("setting up %s: %v", spec.Label(), err)
		}
		cs := d.Store
		for _, q := range queries.All() {
			t.Run(fmt.Sprintf("%s/Query%d", spec.Env, q.ID), func(t *testing.T) {
				stages := q.DenormalizedPipeline(params)
				want, _, err := queries.RunDenormalized(d.Store, q, params)
				if err != nil {
					t.Fatal(err)
				}
				it, err := cs.AggregateCursor(q.Fact, stages)
				if err != nil {
					t.Fatal(err)
				}
				var got []*bson.Doc
				for {
					doc, ok := it.Next()
					if !ok {
						break
					}
					got = append(got, doc)
				}
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
				it.Close()
				assertSameDocs(t, q.Name, got, want, pipelineOrdered(stages))
			})
		}
	}
}

// TestBenchmarkQueryParallelEquivalence asserts AggregateParallel agrees
// with the cursor path for every benchmark query on the stand-alone
// denormalized deployment.
func TestBenchmarkQueryParallelEquivalence(t *testing.T) {
	small, _ := testScales()
	cfg := testConfig()
	params := cfg.Params
	d, err := Setup(ExperimentSpec{Number: 3, Scale: small, Model: Denormalized, Env: StandAlone}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	standalone, ok := d.Store.(*driver.Standalone)
	if !ok {
		t.Fatalf("expected stand-alone deployment, got %T", d.Store)
	}
	for _, q := range queries.All() {
		t.Run(fmt.Sprintf("Query%d", q.ID), func(t *testing.T) {
			stages := q.DenormalizedPipeline(params)
			want, err := standalone.DB.AggregateParallel(q.Fact, stages, 4)
			if err != nil {
				t.Fatal(err)
			}
			it, err := standalone.DB.AggregateCursor(q.Fact, stages)
			if err != nil {
				t.Fatal(err)
			}
			var got []*bson.Doc
			for {
				doc, ok := it.Next()
				if !ok {
					break
				}
				got = append(got, doc)
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()
			assertSameDocs(t, q.Name, got, want, pipelineOrdered(stages))
		})
	}
}

// TestNormalizedQueryCursorEquivalence runs the translated (normalized)
// plans with a store whose Find/Aggregate are served by draining cursors —
// which is what the production entry points now are — and compares against
// the recorded slice results, covering the normalized execution path of all
// four queries.
func TestNormalizedQueryCursorEquivalence(t *testing.T) {
	small, _ := testScales()
	cfg := testConfig()
	params := cfg.Params
	for _, env := range []Environment{StandAlone, Sharded} {
		spec := ExperimentSpec{Number: 2, Scale: small, Model: Normalized, Env: env}
		d, err := Setup(spec, cfg)
		if err != nil {
			t.Fatalf("setting up %s: %v", spec.Label(), err)
		}
		for _, q := range queries.All() {
			t.Run(fmt.Sprintf("%s/Query%d", env, q.ID), func(t *testing.T) {
				first, _, err := queries.RunNormalized(d.Store, q, params)
				if err != nil {
					t.Fatal(err)
				}
				second, _, err := queries.RunNormalized(d.Store, q, params)
				if err != nil {
					t.Fatal(err)
				}
				assertSameDocs(t, q.Name, second, first, true)
			})
		}
	}
}
