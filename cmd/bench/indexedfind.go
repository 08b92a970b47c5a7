package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"docstore/internal/bson"
	"docstore/internal/cluster"
	"docstore/internal/query"
	"docstore/internal/storage"
)

// The indexed-find-under-writes mode is the lock-free planner's headline
// workload: eight reader threads issuing index-backed group queries while a
// bulk writer rewrites every document — and therefore every index position
// list — per batch. Before the persistent versioned index trees, every plan
// and every index scan serialized behind the writer's collection mutex;
// with them the readers never touch a lock. The mode measures three
// variants — plain indexed finds, index-narrowed projection finds (the
// covered-query shape), and the same reads through a sharded router — and
// prints `go test -bench`-formatted lines:
//
//	bench -indexed-find -find-docs 4000 -find-queries 64
//
// The custom tree-copied-B/batch metric is the engine gauge that proves the
// path-copying economics: index-tree bytes duplicated per writer batch,
// O(log n) nodes rather than the whole tree.
type indexedFindConfig struct {
	docs    int
	queries int // per reader
	readers int
	shards  int
}

const indexedFindGroups = 16

func runIndexedFind(cfg indexedFindConfig) error {
	if err := indexedFindStandalone(cfg, nil, "BenchmarkIndexedFindUnderWrites"); err != nil {
		return err
	}
	proj := query.MustParseProjection(bson.D("v", 1))
	if err := indexedFindStandalone(cfg, proj, "BenchmarkIndexedFindUnderWritesCovered"); err != nil {
		return err
	}
	return indexedFindSharded(cfg)
}

func indexedFindSeed(n int) []storage.WriteOp {
	ops := make([]storage.WriteOp, n)
	for i := 0; i < n; i++ {
		ops[i] = storage.InsertWriteOp(bson.D(
			bson.IDKey, fmt.Sprintf("seed-%d", i),
			"g", i%indexedFindGroups,
			"v", 0,
			"pad", fmt.Sprintf("item-%06d", i),
		))
	}
	return ops
}

func indexedFindWriteBatch() []storage.WriteOp {
	ops := make([]storage.WriteOp, indexedFindGroups)
	for g := 0; g < indexedFindGroups; g++ {
		ops[g] = storage.UpdateWriteOp(query.UpdateSpec{
			Query:  bson.D("g", g),
			Update: bson.D("$inc", bson.D("v", 1)),
			Multi:  true,
		})
	}
	return ops
}

// indexedFindRun drives the readers-vs-writer shape against any find/write
// pair and prints one benchmark line from the resulting rates.
func indexedFindRun(cfg indexedFindConfig, name string,
	find func(filter *bson.Doc) (int, error),
	write func() error,
	treeCopied func() int64) error {

	var readerDocs, writerBatches int64
	var readerErr, writerErr error
	var errOnce sync.Once
	fail := func(err error) { errOnce.Do(func() { readerErr = err }) }
	perGroup := cfg.docs / indexedFindGroups

	copiedBefore := treeCopied()
	start := time.Now()
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := write(); err != nil {
				writerErr = err
				return
			}
			atomic.AddInt64(&writerBatches, 1)
		}
	}()
	var readerWG sync.WaitGroup
	for r := 0; r < cfg.readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for q := 0; q < cfg.queries; q++ {
				g := (r + q) % indexedFindGroups
				n, err := find(bson.D("g", g))
				if err != nil {
					fail(err)
					return
				}
				if n != perGroup {
					fail(fmt.Errorf("indexed read returned %d docs for group %d, want %d", n, g, perGroup))
					return
				}
				atomic.AddInt64(&readerDocs, int64(n))
			}
		}(r)
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	elapsed := time.Since(start)
	if readerErr != nil {
		return readerErr
	}
	if writerErr != nil {
		return writerErr
	}

	batches := atomic.LoadInt64(&writerBatches)
	copiedPerBatch := float64(0)
	if batches > 0 {
		copiedPerBatch = float64(treeCopied()-copiedBefore) / float64(batches)
	}
	totalQueries := int64(cfg.readers * cfg.queries)
	fmt.Printf("%s/docs%d \t%d\t%d ns/op\t%.0f reader_docs/s\t%.1f writer_batches/s\t%.0f tree-copied-B/batch\n",
		name, cfg.docs, totalQueries, elapsed.Nanoseconds()/totalQueries,
		float64(atomic.LoadInt64(&readerDocs))/elapsed.Seconds(),
		float64(batches)/elapsed.Seconds(),
		copiedPerBatch)
	return nil
}

func indexedFindStandalone(cfg indexedFindConfig, proj *query.Projection, name string) error {
	c := storage.NewCollection("idxfind")
	if _, err := c.EnsureIndexDoc(bson.D("g", 1), false); err != nil {
		return err
	}
	if res := c.BulkWrite(indexedFindSeed(cfg.docs), storage.BulkOptions{}); res.FirstError() != nil {
		return fmt.Errorf("seeding %d docs: %w", cfg.docs, res.FirstError())
	}
	if _, plan, err := c.FindWithPlan(bson.D("g", 0), storage.FindOptions{Projection: proj}); err != nil || plan.IndexUsed != "g_1" {
		return fmt.Errorf("plan = %s, %v; want IXSCAN g_1", plan, err)
	}
	return indexedFindRun(cfg, name,
		func(filter *bson.Doc) (int, error) {
			docs, err := c.Find(filter, storage.FindOptions{Projection: proj})
			return len(docs), err
		},
		func() error {
			res := c.BulkWrite(indexedFindWriteBatch(), storage.BulkOptions{})
			return res.FirstError()
		},
		func() int64 { return c.EngineStats().TreeBytesCopied })
}

func indexedFindSharded(cfg indexedFindConfig) error {
	cl, err := cluster.Build(cluster.Config{
		Shards:          cfg.shards,
		ParallelScatter: true,
		ChunkSizeBytes:  1 << 20,
	})
	if err != nil {
		return err
	}
	r := cl.Router()
	if _, err := r.EnableSharding("bench", "idxfind", bson.D("g", "hashed"), 1<<20); err != nil {
		return err
	}
	for _, name := range r.ShardNames() {
		shard := r.Shard(name).Database("bench").Collection("idxfind")
		if _, err := shard.EnsureIndexDoc(bson.D("g", 1), false); err != nil {
			return err
		}
	}
	if res := r.BulkWrite("bench", "idxfind", indexedFindSeed(cfg.docs), storage.BulkOptions{}); res.FirstError() != nil {
		return fmt.Errorf("seeding %d docs: %w", cfg.docs, res.FirstError())
	}
	treeCopied := func() int64 {
		var total int64
		for _, name := range r.ShardNames() {
			total += r.Shard(name).Database("bench").Collection("idxfind").EngineStats().TreeBytesCopied
		}
		return total
	}
	return indexedFindRun(cfg, fmt.Sprintf("BenchmarkIndexedFindUnderWritesSharded/shards%d", cfg.shards),
		func(filter *bson.Doc) (int, error) {
			docs, err := r.Find("bench", "idxfind", filter, storage.FindOptions{})
			return len(docs), err
		},
		func() error {
			res := r.BulkWrite("bench", "idxfind", indexedFindWriteBatch(), storage.BulkOptions{})
			return res.FirstError()
		},
		treeCopied)
}
