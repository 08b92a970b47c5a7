// Benchmarks regenerating every table and figure of the thesis' evaluation.
//
// Mapping to the paper:
//
//	BenchmarkTable35QueryFeatures      — Table 3.5 (query feature catalog)
//	BenchmarkTable36RowCounts          — Table 3.6 (row counts per table and scale)
//	BenchmarkTable43DataLoad/*         — Table 4.3 and Figure 4.9 (per-dataset load times)
//	BenchmarkTable44Selectivity/*      — Table 4.4 (result-set sizes per query)
//	BenchmarkExperiment*/Query*        — Table 4.5, Figures 4.10 and 4.11 (runtimes for
//	                                     Experiments 1–6 × Queries 7/21/46/50)
//	BenchmarkAblation*                 — the ablation studies of internal/core/ablation.go
//
// Run with:  go test -bench=. -benchmem
//
// The dataset divisor below keeps a full -bench=. run in the minutes range;
// cmd/bench exposes the same measurements with a configurable divisor for
// longer, closer-to-paper runs.
package docstore_test

import (
	"fmt"
	"sync"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/core"
	"docstore/internal/queries"
	"docstore/internal/storage"
	"docstore/internal/tpcds"
)

// benchDivisor scales the paper's Table 3.6 row counts down for benchmark
// runs (1 would reproduce the paper's absolute cardinalities).
const benchDivisor = 1000

func benchScales() (tpcds.Scale, tpcds.Scale) {
	return tpcds.ScaleSmall.WithDivisor(benchDivisor), tpcds.ScaleLarge.WithDivisor(benchDivisor)
}

func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Runs = 1
	cfg.ChunkSizeBytes = 1 << 20
	return cfg
}

// deploymentCache builds each experiment's deployment once per benchmark
// process so repeated bench iterations measure query time, not setup time.
var deploymentCache sync.Map

func benchDeployment(b *testing.B, spec core.ExperimentSpec) *core.Deployment {
	b.Helper()
	key := fmt.Sprintf("%d-%s-%s-%s", spec.Number, spec.Scale.Name, spec.Model, spec.Env)
	if d, ok := deploymentCache.Load(key); ok {
		return d.(*core.Deployment)
	}
	d, err := core.Setup(spec, benchConfig())
	if err != nil {
		b.Fatalf("setting up %s: %v", spec.Label(), err)
	}
	deploymentCache.Store(key, d)
	return d
}

// BenchmarkTable35QueryFeatures renders the static query-feature catalog.
func BenchmarkTable35QueryFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.Table35() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable36RowCounts evaluates the row-count model for every table at
// both scales.
func BenchmarkTable36RowCounts(b *testing.B) {
	small, large := benchScales()
	schema := tpcds.NewSchema()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range schema.TableNames() {
			_ = small.RowCount(t)
			_ = large.RowCount(t)
		}
	}
	b.ReportMetric(float64(small.RowCount("store_sales")), "rows_1GB_store_sales")
	b.ReportMetric(float64(large.RowCount("store_sales")), "rows_5GB_store_sales")
}

// BenchmarkTable43DataLoad measures migrating each dataset into a fresh
// stand-alone server — the content of Table 4.3 and Figure 4.9.
func BenchmarkTable43DataLoad(b *testing.B) {
	small, large := benchScales()
	for _, scale := range []tpcds.Scale{small, large} {
		b.Run(scale.Name, func(b *testing.B) {
			cfg := benchConfig()
			totalDocs := 0
			for i := 0; i < b.N; i++ {
				d, err := core.Setup(core.ExperimentSpec{Number: 0, Scale: scale, Model: core.Normalized, Env: core.StandAlone}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				totalDocs = d.Load.TotalDocuments()
			}
			b.ReportMetric(float64(totalDocs), "docs")
		})
	}
}

// BenchmarkTable44Selectivity measures the result-set size of each query (the
// selectivity of Table 4.4) while timing its execution on the denormalized
// stand-alone deployment.
func BenchmarkTable44Selectivity(b *testing.B) {
	small, _ := benchScales()
	d := benchDeployment(b, core.ExperimentSpec{Number: 3, Scale: small, Model: core.Denormalized, Env: core.StandAlone})
	for _, q := range queries.All() {
		b.Run(fmt.Sprintf("Query%d", q.ID), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				docs, _, err := queries.RunDenormalized(d.Store, q, benchConfig().Params)
				if err != nil {
					b.Fatal(err)
				}
				bytes = 0
				for _, doc := range docs {
					bytes += int64(bson.EncodedSize(doc))
				}
			}
			b.ReportMetric(float64(bytes), "result_bytes")
		})
	}
}

// benchmarkExperimentQueries measures one experiment's four queries — one
// cell of Table 4.5 (and one bar of Figure 4.10/4.11) per sub-benchmark.
func benchmarkExperimentQueries(b *testing.B, spec core.ExperimentSpec) {
	d := benchDeployment(b, spec)
	params := benchConfig().Params
	for _, q := range queries.All() {
		b.Run(fmt.Sprintf("Query%d", q.ID), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if spec.Model == core.Denormalized {
					_, _, err = queries.RunDenormalized(d.Store, q, params)
				} else {
					_, _, err = queries.RunNormalized(d.Store, q, params)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Experiments 1–6 (Table 4.1): the Table 4.5 grid.

func BenchmarkExperiment1NormalizedSharded1GB(b *testing.B) {
	small, _ := benchScales()
	benchmarkExperimentQueries(b, core.ExperimentSpec{Number: 1, Scale: small, Model: core.Normalized, Env: core.Sharded})
}

func BenchmarkExperiment2NormalizedStandalone1GB(b *testing.B) {
	small, _ := benchScales()
	benchmarkExperimentQueries(b, core.ExperimentSpec{Number: 2, Scale: small, Model: core.Normalized, Env: core.StandAlone})
}

func BenchmarkExperiment3DenormalizedStandalone1GB(b *testing.B) {
	small, _ := benchScales()
	benchmarkExperimentQueries(b, core.ExperimentSpec{Number: 3, Scale: small, Model: core.Denormalized, Env: core.StandAlone})
}

func BenchmarkExperiment4NormalizedSharded5GB(b *testing.B) {
	_, large := benchScales()
	benchmarkExperimentQueries(b, core.ExperimentSpec{Number: 4, Scale: large, Model: core.Normalized, Env: core.Sharded})
}

func BenchmarkExperiment5NormalizedStandalone5GB(b *testing.B) {
	_, large := benchScales()
	benchmarkExperimentQueries(b, core.ExperimentSpec{Number: 5, Scale: large, Model: core.Normalized, Env: core.StandAlone})
}

func BenchmarkExperiment6DenormalizedStandalone5GB(b *testing.B) {
	_, large := benchScales()
	benchmarkExperimentQueries(b, core.ExperimentSpec{Number: 6, Scale: large, Model: core.Denormalized, Env: core.StandAlone})
}

// BenchmarkFullScanSliceVsCursor contrasts the two execution strategies for
// a full collection scan of the denormalized store_sales fact collection at
// the bench divisor: the materializing slice path (Find) allocates the whole
// result set per operation, while the streaming cursor path (FindCursor)
// holds only one batch at a time, so its reported B/op — the peak transient
// allocation — drops from O(result) to O(batch). Both paths are verified to
// produce byte-identical results before timing starts.
func BenchmarkFullScanSliceVsCursor(b *testing.B) {
	small, _ := benchScales()
	d := benchDeployment(b, core.ExperimentSpec{Number: 3, Scale: small, Model: core.Denormalized, Env: core.StandAlone})
	coll := d.Standalone.Database(core.DatabaseName(small)).Collection("store_sales")
	if coll.Count() == 0 {
		b.Fatal("store_sales is empty")
	}

	checksum := func(docs []*bson.Doc) (int, int64) {
		var bytes int64
		for _, doc := range docs {
			bytes += int64(bson.EncodedSize(doc))
		}
		return len(docs), bytes
	}
	sliceDocs, err := coll.Find(nil, storage.FindOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cur, err := coll.FindCursor(nil, storage.FindOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cursorDocs, err := cur.All()
	if err != nil {
		b.Fatal(err)
	}
	if len(sliceDocs) != len(cursorDocs) {
		b.Fatalf("slice path returned %d docs, cursor path %d", len(sliceDocs), len(cursorDocs))
	}
	for i := range sliceDocs {
		sb, cb := bson.Marshal(sliceDocs[i]), bson.Marshal(cursorDocs[i])
		if string(sb) != string(cb) {
			b.Fatalf("doc %d not byte-identical between slice and cursor paths", i)
		}
	}
	wantN, wantBytes := checksum(sliceDocs)

	b.Run("Slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			docs, err := coll.Find(nil, storage.FindOptions{})
			if err != nil {
				b.Fatal(err)
			}
			n, bytes := checksum(docs)
			if n != wantN || bytes != wantBytes {
				b.Fatalf("slice scan drifted: %d docs / %d bytes", n, bytes)
			}
		}
	})
	b.Run("Cursor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cur, err := coll.FindCursor(nil, storage.FindOptions{})
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			var bytes int64
			for {
				batch := cur.NextBatch()
				if len(batch) == 0 {
					break
				}
				n += len(batch)
				for _, doc := range batch {
					bytes += int64(bson.EncodedSize(doc))
				}
			}
			if n != wantN || bytes != wantBytes {
				b.Fatalf("cursor scan drifted: %d docs / %d bytes", n, bytes)
			}
		}
	})
}

// BenchmarkAblationShardKeyRouting contrasts Query 50 under the paper's
// ticket-number shard key (targeted) and an alternate key (broadcast).
func BenchmarkAblationShardKeyRouting(b *testing.B) {
	small, _ := benchScales()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.RunShardKeyAblation(small, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TicketKeyStats.ShardCalls), "shard_calls_ticket_key")
		b.ReportMetric(float64(res.AlternateStats.ShardCalls), "shard_calls_alt_key")
	}
}

// BenchmarkAblationSecondaryIndexes contrasts Query 7 on the normalized model
// with and without secondary indexes.
func BenchmarkAblationSecondaryIndexes(b *testing.B) {
	small, _ := benchScales()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.RunIndexAblation(small, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WithIndexes.Seconds(), "with_indexes_s")
		b.ReportMetric(res.WithoutIndexes.Seconds(), "without_indexes_s")
	}
}

// BenchmarkAblationParallelScatter contrasts sequential and parallel
// scatter-gather for a broadcast query on the sharded cluster.
func BenchmarkAblationParallelScatter(b *testing.B) {
	small, _ := benchScales()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := core.RunScatterAblation(small, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Sequential.Seconds(), "sequential_s")
		b.ReportMetric(res.Parallel.Seconds(), "parallel_s")
	}
}
