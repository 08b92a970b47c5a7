// Benchmarks for the bulk-write engine (PR 2): a batched bulk insert versus
// the per-document write loop on both deployment shapes.
//
//	BenchmarkBulkInsertVsLoop/SingleNodeWire/*  — 10k docs over the wire
//	    protocol against a stand-alone server: one bulkWrite round trip vs
//	    one insert round trip per document.
//	BenchmarkBulkInsertVsLoop/Router4Shards/*   — 10k docs through a 4-shard
//	    query router with the simulated inter-instance network latency of the
//	    thesis' cluster: one grouped sub-batch per shard vs one routed call
//	    per document.
//	BenchmarkShardedBulkScatter/*               — the grouping scatter in
//	    ordered (sequential contiguous runs) vs unordered (parallel per-shard
//	    fan-out) mode, reporting shard round trips per batch.
//
// Throughput is reported as docs/s; the bulk paths must clear 2x the loop
// paths (CI records both in its bench summary).
package docstore_test

import (
	"fmt"
	"testing"
	"time"

	"docstore/internal/bson"
	"docstore/internal/cluster"
	"docstore/internal/mongod"
	"docstore/internal/storage"
	"docstore/internal/wire"
)

const bulkBenchDocs = 10000

// benchRouterLatency models the AWS inter-instance network of the thesis'
// cluster (DefaultConfig uses 200µs; this keeps loop iterations affordable).
const benchRouterLatency = 50 * time.Microsecond

// bulkBenchDoc builds one small sales-like document with a unique _id.
func bulkBenchDoc(iter, i int) *bson.Doc {
	return bson.D(
		bson.IDKey, fmt.Sprintf("doc-%d-%d", iter, i),
		"k", i,
		"qty", i%100,
		"price", float64(i%997)+0.99,
	)
}

func reportDocsPerSec(b *testing.B, docs int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(docs*b.N)/s, "docs/s")
	}
}

func BenchmarkBulkInsertVsLoop(b *testing.B) {
	b.Run("SingleNodeWire", func(b *testing.B) {
		srv := wire.NewServer(mongod.NewServer(mongod.Options{Name: "standalone"}))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		client, err := wire.Dial(addr, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()

		b.Run("Loop", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for i := 0; i < bulkBenchDocs; i++ {
					if err := client.Insert("bench", "loop", bulkBenchDoc(n, i)); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportDocsPerSec(b, bulkBenchDocs)
		})
		b.Run("Bulk", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				ops := make([]*bson.Doc, bulkBenchDocs)
				for i := range ops {
					ops[i] = wire.BulkInsertOp(bulkBenchDoc(n, i))
				}
				res, err := client.BulkWrite("bench", "bulk", ops, false)
				if err != nil {
					b.Fatal(err)
				}
				if res.Inserted != bulkBenchDocs || len(res.WriteErrors) != 0 {
					b.Fatalf("bulk inserted %d with %d errors", res.Inserted, len(res.WriteErrors))
				}
			}
			reportDocsPerSec(b, bulkBenchDocs)
		})
	})

	b.Run("Router4Shards", func(b *testing.B) {
		c := cluster.MustBuild(cluster.Config{
			Shards:          4,
			NetworkLatency:  benchRouterLatency,
			ParallelScatter: true,
			ChunkSizeBytes:  1 << 20,
		})
		r := c.Router()
		if _, err := r.EnableSharding("bench", "sales", bson.D("k", "hashed"), 1<<20); err != nil {
			b.Fatal(err)
		}

		b.Run("Loop", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for i := 0; i < bulkBenchDocs; i++ {
					if _, err := r.Insert("bench", "sales", bulkBenchDoc(n, i)); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportDocsPerSec(b, bulkBenchDocs)
		})
		b.Run("Bulk", func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				ops := make([]storage.WriteOp, bulkBenchDocs)
				for i := range ops {
					ops[i] = storage.InsertWriteOp(bulkBenchDoc(-n-1, i))
				}
				res := r.BulkWrite("bench", "sales", ops, storage.BulkOptions{})
				if res.Inserted != bulkBenchDocs || len(res.Errors) != 0 {
					b.Fatalf("bulk inserted %d with %d errors", res.Inserted, len(res.Errors))
				}
			}
			reportDocsPerSec(b, bulkBenchDocs)
		})
	})
}

// BenchmarkShardedBulkScatter contrasts the two dispatch modes of the
// grouping scatter on a 4-shard cluster: ordered batches walk contiguous
// same-shard runs sequentially, unordered batches fan the per-shard
// sub-batches out in parallel goroutines.
func BenchmarkShardedBulkScatter(b *testing.B) {
	for _, mode := range []struct {
		name    string
		ordered bool
	}{{"Unordered", false}, {"Ordered", true}} {
		b.Run(mode.name, func(b *testing.B) {
			c := cluster.MustBuild(cluster.Config{
				Shards:          4,
				NetworkLatency:  benchRouterLatency,
				ParallelScatter: true,
				ChunkSizeBytes:  1 << 20,
			})
			r := c.Router()
			if _, err := r.EnableSharding("bench", "sales", bson.D("k", "hashed"), 1<<20); err != nil {
				b.Fatal(err)
			}
			r.ResetStats()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				ops := make([]storage.WriteOp, bulkBenchDocs)
				for i := range ops {
					ops[i] = storage.InsertWriteOp(bulkBenchDoc(n, i))
				}
				res := r.BulkWrite("bench", "sales", ops, storage.BulkOptions{Ordered: mode.ordered})
				if res.Inserted != bulkBenchDocs || len(res.Errors) != 0 {
					b.Fatalf("bulk inserted %d with %d errors", res.Inserted, len(res.Errors))
				}
			}
			b.StopTimer()
			reportDocsPerSec(b, bulkBenchDocs)
			if b.N > 0 {
				b.ReportMetric(float64(r.Stats().ShardCalls)/float64(b.N), "shard_calls/batch")
			}
		})
	}
}
