package main

import (
	"fmt"
	"time"

	"docstore/internal/bson"
	"docstore/internal/metrics"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/replset"
	"docstore/internal/storage"
)

// The single-doc update stream is the paged-COW engine's headline workload:
// the same point-write shape the replica-set apply loop produces on every
// secondary. The mode measures it twice — straight against one
// storage.Collection, and acknowledged by a 3-member replica set with
// majority write concern — and prints `go test -bench`-formatted lines:
//
//	bench -update-stream -stream-docs 100000 -stream-ops 5000
//
// The custom cow-copied-B/op metric is the engine gauge that proves the
// paging win: record bytes duplicated per operation, one page rather than
// the whole collection.
type updateStreamConfig struct {
	docs int
	ops  int
}

func runUpdateStream(cfg updateStreamConfig) error {
	if err := updateStreamStandalone(cfg); err != nil {
		return err
	}
	return updateStreamReplSet(cfg)
}

func updateStreamSeed(n int) []storage.WriteOp {
	ops := make([]storage.WriteOp, n)
	for i := 0; i < n; i++ {
		ops[i] = storage.InsertWriteOp(bson.D(
			bson.IDKey, fmt.Sprintf("doc-%d", i),
			"v", 0,
			"pad", fmt.Sprintf("item-%06d", i),
		))
	}
	return ops
}

func updateStreamOp(i, docs int) []storage.WriteOp {
	return []storage.WriteOp{storage.UpdateWriteOp(query.UpdateSpec{
		Query:  bson.D(bson.IDKey, fmt.Sprintf("doc-%d", i%docs)),
		Update: bson.D("$set", bson.D("v", i+1)),
	})}
}

func updateStreamStandalone(cfg updateStreamConfig) error {
	c := storage.NewCollection("stream")
	if res := c.BulkWrite(updateStreamSeed(cfg.docs), storage.BulkOptions{}); res.FirstError() != nil {
		return fmt.Errorf("seeding %d docs: %w", cfg.docs, res.FirstError())
	}
	var hist metrics.Histogram
	for i := 0; i < cfg.ops; i++ {
		start := time.Now()
		res := c.BulkWrite(updateStreamOp(i, cfg.docs), storage.BulkOptions{})
		hist.Observe(time.Since(start))
		if err := res.FirstError(); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	st := c.EngineStats()
	printUpdateStreamLine(fmt.Sprintf("BenchmarkUpdateStreamStandalone/docs%d", cfg.docs), hist.Snapshot(), &st)
	return nil
}

func updateStreamReplSet(cfg updateStreamConfig) error {
	members := make([]*mongod.Server, 3)
	for i := range members {
		members[i] = mongod.NewServer(mongod.Options{Name: fmt.Sprintf("m%d", i)})
	}
	rs, err := replset.New("stream-rs", members...)
	if err != nil {
		return err
	}
	rs.StartReplication()
	defer rs.Close()

	wc := storage.WriteConcern{Majority: true}
	if res := rs.BulkWrite("bench", "stream", updateStreamSeed(cfg.docs),
		storage.BulkOptions{WriteConcern: wc}); res.FirstError() != nil {
		return fmt.Errorf("seeding %d docs: %w", cfg.docs, res.FirstError())
	}
	var hist metrics.Histogram
	for i := 0; i < cfg.ops; i++ {
		start := time.Now()
		res := rs.BulkWrite("bench", "stream", updateStreamOp(i, cfg.docs), storage.BulkOptions{WriteConcern: wc})
		hist.Observe(time.Since(start))
		if err := res.FirstError(); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	// The primary's engine gauges carry the apply path's COW economics.
	st := rs.Primary().Status().Engine
	printUpdateStreamLine(fmt.Sprintf("BenchmarkUpdateStreamReplSetApply/m3/docs%d", cfg.docs), hist.Snapshot(), &st)
	return nil
}

func printUpdateStreamLine(name string, snap metrics.HistogramSnapshot, st *storage.EngineStats) {
	fmt.Printf("%s \t%d\t%d ns/op\t%d p50-ns/op\t%d p99-ns/op\t%.0f cow-copied-B/op\t%.0f reclaimed-B/op\n",
		name, snap.Count, snap.Mean().Nanoseconds(),
		snap.P50().Nanoseconds(), snap.P99().Nanoseconds(),
		float64(st.COWBytesCopied)/float64(snap.Count),
		float64(st.ReclaimedBytes)/float64(snap.Count))
}
