package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"docstore/internal/bson"
	"docstore/internal/metrics"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/replset"
	"docstore/internal/sharding"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// The write-concern sweep measures acknowledged-write latency across the
// {threads} x {replica set size} x {write concern} x {shards} grid, printing
// one `go test -bench`-formatted line per cell with mean, p50, p99 and p999
// latencies as custom metrics:
//
//	bench -sweep -sweep-threads 1,4 -sweep-members 1,3 \
//	      -sweep-wc w1,majority,majority+j -sweep-shards 1
type sweepConfig struct {
	threads  []int
	members  []int
	concerns []string
	shards   []int
	requests int
}

func runSweep(cfg sweepConfig) error {
	for _, s := range cfg.shards {
		for _, m := range cfg.members {
			for _, wcName := range cfg.concerns {
				wc, err := parseSweepConcern(wcName)
				if err != nil {
					return err
				}
				if wc.W > m {
					fmt.Fprintf(os.Stderr, "bench: skipping wc=%s at %d member(s): quorum unreachable by construction\n", wcName, m)
					continue
				}
				for _, t := range cfg.threads {
					snap, serverSnap, err := runSweepCell(t, m, s, wc, cfg.requests)
					if err != nil {
						return fmt.Errorf("cell t%d/m%d/wc%s/s%d: %w", t, m, wcName, s, err)
					}
					printSweepLine(t, m, wcName, s, snap)
					printSweepServerLine(t, m, wcName, s, serverSnap)
				}
			}
		}
	}
	return nil
}

// runSweepCell builds s replica sets of m members each (WAL-backed oplogs,
// so j:true measures a real fsync), fans requests across t writer
// goroutines, and returns two latency histograms: the client-observed
// acknowledged latency (all writers record into one lock-free
// metrics.Histogram — the same structure the server's /metrics endpoint
// exports, so harness and production agree on percentile math) and the
// server-side per-namespace execution latency, read back from each shard
// primary's labeled {collection, op, shard} histogram and merged. The gap
// between the two is the cell's acknowledgement overhead (replication and
// quorum wait), attributed to the bench.writes namespace.
func runSweepCell(threads, members, shards int, wc storage.WriteConcern, requests int) (metrics.HistogramSnapshot, metrics.HistogramSnapshot, error) {
	var none metrics.HistogramSnapshot
	sets := make([]*replset.ReplicaSet, shards)
	for si := range sets {
		ms := make([]*mongod.Server, members)
		for mi := range ms {
			ms[mi] = mongod.NewServer(mongod.Options{Name: fmt.Sprintf("s%dm%d", si, mi)})
		}
		rs, err := replset.New(fmt.Sprintf("rs%d", si), ms...)
		if err != nil {
			return none, none, err
		}
		dir, err := os.MkdirTemp("", "bench-oplog-")
		if err != nil {
			return none, none, err
		}
		defer os.RemoveAll(dir)
		w, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncGroupCommit})
		if err != nil {
			return none, none, err
		}
		defer w.Close()
		rs.AttachWAL(w)
		rs.StartReplication()
		defer rs.Close()
		sets[si] = rs
	}

	write := func(id int) storage.BulkResult {
		doc := bson.D(bson.IDKey, id, "k", id, "payload", "0123456789abcdef")
		return sets[0].BulkWrite("bench", "writes", []storage.WriteOp{storage.InsertWriteOp(doc)},
			storage.BulkOptions{Ordered: true, WriteConcern: wc})
	}
	if shards > 1 {
		router := mongos.NewRouter(sharding.NewConfigServer(), mongos.Options{})
		for si, rs := range sets {
			router.AddReplicaShard(fmt.Sprintf("shard%d", si), rs)
		}
		if _, err := router.EnableSharding("bench", "writes", bson.D("k", 1), 1<<20); err != nil {
			return none, none, err
		}
		write = func(id int) storage.BulkResult {
			doc := bson.D(bson.IDKey, id, "k", id, "payload", "0123456789abcdef")
			return router.BulkWrite("bench", "writes", []storage.WriteOp{storage.InsertWriteOp(doc)},
				storage.BulkOptions{Ordered: true, WriteConcern: wc})
		}
	}

	perThread := requests / threads
	if perThread == 0 {
		perThread = 1
	}
	var hist metrics.Histogram
	errs := make(chan error, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for j := 0; j < perThread; j++ {
				id := t*perThread + j
				start := time.Now()
				res := write(id)
				hist.Observe(time.Since(start))
				if err := res.FirstError(); err != nil {
					errs <- fmt.Errorf("request %d: %w", id, err)
					return
				}
			}
		}(t)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return none, none, err
	}
	// The server-side view of the same cell: every shard primary recorded
	// its one-op insert batches into the labeled bench.writes series.
	var serverSnap metrics.HistogramSnapshot
	for _, rs := range sets {
		serverSnap.Merge(rs.Primary().CollectionOpDurations("bench.writes", "insert"))
	}
	return hist.Snapshot(), serverSnap, nil
}

// parseSweepConcern decodes a sweep cell's concern name: w<N> or majority,
// with an optional +j journal suffix (e.g. w1, majority, majority+j, w2+j).
func parseSweepConcern(name string) (storage.WriteConcern, error) {
	var wc storage.WriteConcern
	base := name
	if strings.HasSuffix(base, "+j") {
		wc.Journal = true
		base = strings.TrimSuffix(base, "+j")
	}
	switch {
	case base == "majority":
		wc.Majority = true
	case strings.HasPrefix(base, "w"):
		n, err := strconv.Atoi(base[1:])
		if err != nil || n < 1 {
			return wc, fmt.Errorf("bad write concern %q (want w<N>, majority, optionally +j)", name)
		}
		wc.W = n
	default:
		return wc, fmt.Errorf("bad write concern %q (want w<N>, majority, optionally +j)", name)
	}
	return wc, nil
}

func printSweepLine(threads, members int, wcName string, shards int, snap metrics.HistogramSnapshot) {
	fmt.Printf("BenchmarkWriteConcernSweep/t%d/m%d/wc%s/s%d \t%d\t%d ns/op\t%d p50-ns/op\t%d p99-ns/op\t%d p999-ns/op\n",
		threads, members, wcName, shards, snap.Count,
		snap.Mean().Nanoseconds(),
		snap.P50().Nanoseconds(), snap.P99().Nanoseconds(), snap.P999().Nanoseconds())
}

// printSweepServerLine emits the cell's server-side per-namespace latency as
// its own benchmark series, so execution time in the bench.writes namespace
// reads separately from the acknowledged latency above.
func printSweepServerLine(threads, members int, wcName string, shards int, snap metrics.HistogramSnapshot) {
	fmt.Printf("BenchmarkWriteConcernSweepNS/bench.writes/t%d/m%d/wc%s/s%d \t%d\t%d ns/op\t%d p50-ns/op\t%d p99-ns/op\t%d p999-ns/op\n",
		threads, members, wcName, shards, snap.Count,
		snap.Mean().Nanoseconds(),
		snap.P50().Nanoseconds(), snap.P99().Nanoseconds(), snap.P999().Nanoseconds())
}

// parseIntList splits a comma-separated list of positive integers.
func parseIntList(flagName, s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-%s: bad entry %q (want positive integers)", flagName, p)
		}
		out = append(out, n)
	}
	return out, nil
}
