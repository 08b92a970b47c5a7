// Benchmark for positional index entries (PR 13): what one index hit costs.
//
//	BenchmarkIndexScan/entries=N — an index-served find over a key holding N
//	    entries (1, 100, 10 000), drained through a cursor so no result slice
//	    is built. ns/entry is the whole per-hit cost (tree walk, candidate
//	    list, record fetch, filter re-check); allocs/entry must fall towards
//	    zero as N grows, because an entry is a record position and resolving
//	    it allocates nothing. internal/storage's
//	    TestIndexScanAllocatesNothingPerEntry asserts the same in CI.
package docstore_test

import (
	"fmt"
	"runtime"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/storage"
)

func BenchmarkIndexScan(b *testing.B) {
	sizes := []int{1, 100, 10000}
	c := storage.NewCollection("idxscan")
	if _, err := c.EnsureIndexDoc(bson.D("g", 1), false); err != nil {
		b.Fatal(err)
	}
	var docs []*bson.Doc
	for g, n := range sizes {
		for i := 0; i < n; i++ {
			docs = append(docs, bson.D("g", g, "v", i))
		}
	}
	if _, err := c.InsertMany(docs); err != nil {
		b.Fatal(err)
	}
	for g, n := range sizes {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			filter := bson.D("g", g)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur, err := c.FindCursor(filter, storage.FindOptions{})
				if err != nil {
					b.Fatal(err)
				}
				seen := 0
				for batch := cur.NextBatch(); len(batch) > 0; batch = cur.NextBatch() {
					seen += len(batch)
				}
				if plan := cur.Plan(); seen != n || plan.IndexUsed != "g_1" {
					b.Fatalf("drained %d documents, plan %s; want %d through g_1", seen, plan, n)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			entries := float64(b.N) * float64(n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/entries, "ns/entry")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/entries, "allocs/entry")
		})
	}
}
