// Command docstored runs the document store as a stand-alone server process
// speaking the binary wire protocol of internal/wire, the analogue of the
// mongod daemon in the thesis' deployments:
//
//	docstored -addr 127.0.0.1:27017 -name Shard1
//
// A connection carries one request frame and then its reply frame at a time.
// A frame is one document in the binary encoding of internal/bson (the
// encoding of the write-ahead log and the snapshots), and its own leading
// little-endian int32 length is the frame header. A frame is at most 48 MB
// (maxFrameSize) and nests, as anything a decoder reads, at most
// bson.MaxDepth = 100 levels of documents and arrays; the storage engine
// holds what is written to bson.MaxDocumentDepth = 92, so that a stored
// document still decodes wrapped in a log record or a reply. A length
// outside [5, 48 MB], a frame that ends early, or bytes that do not decode
// as a request close that connection, after a last reply saying why, and no
// other; the event shows as op="other" in docstore_wire_request_errors_total.
// A result too large for one frame arrives as the documents that fit and a
// cursor id for the rest (getMore), whether or not the request named a
// batch size.
// There is no JSON on the socket: docstore-shell parses and prints extended
// JSON at its standard input and output and speaks frames to the server (the
// ops below are written in its notation), and a checkpoint's manifest keeps
// its index specifications as JSON in a file.
//
// With -data-dir the server is durable: every write is recorded in a
// write-ahead log before it applies, startup recovers the last checkpoint
// plus a log replay (truncating any torn tail left by a crash), and
// checkpoints prune obsolete log segments. The sync policy is chosen with
// -wal-sync:
//
//	docstored -data-dir /var/lib/docstore -wal-sync group -checkpoint-every 5m
//
//	-wal-sync always   one fsync per acknowledged write
//	-wal-sync group    group commit: concurrent writers share fsyncs (default)
//	-wal-sync none     fsync only on rotation/shutdown; writeConcern
//	                   {j: true} still forces one
//
// A durable server also serves change streams: the wire "watch" op opens a
// tailable cursor over the committed write feed, resumable by token.
// -changestream-buffer sizes each watcher's bounded event buffer — a watcher
// that falls further behind is invalidated (it resumes from its last token)
// rather than ever stalling the write path.
//
// With -replicas N (N > 1) the process runs an in-process replica set: the
// primary is this server (durable when -data-dir is set) and the N-1
// secondaries are volatile members fed from a replicated oplog. Writes may
// then carry a writeConcern ({w: 1|N|"majority", j, wtimeout}) and block
// until that many members applied them; -write-concern sets the default for
// writes that carry none ("1", "majority", "2+j", ...). On a durable server
// the oplog lives in its own WAL under <data-dir>/oplog, so a restarted
// process reloads it and the secondaries rebuild themselves by replay:
//
//	docstored -data-dir /var/lib/docstore -replicas 3 -write-concern majority
//
// Without -replicas, a write concern of w > 1 is refused — there is nothing
// to replicate to — while {w: 1} and {j: true} behave as before.
//
// With -shards N the process runs an in-process sharded cluster: N shard
// servers behind a query router (the mongos role). Data-plane requests fan
// out across the shards, "shardCollection" declares a collection's shard
// key, and "checkpoint" takes a cluster-consistent checkpoint — every shard
// captured under one simultaneous write hold, so restarting the cluster
// restores every shard to the same capture point. With -data-dir each shard
// is durable under its own <data-dir>/shardN directory:
//
//	docstored -data-dir /var/lib/docstore -shards 2 -checkpoint-every 5m
//
// Observability: every request is traced into a span tree (wire → router →
// mongod → storage → WAL/quorum waits) queryable over the wire with
// {"op":"currentOp"} (in flight) and {"op":"getTraces"} (completed); both
// accept opName/minDurationUS filters. -trace-sample sets the fraction
// retained, -trace-ring the retention ring size, and -profile-slowms the
// slow-op threshold that both admits operations to the profiler ring and
// force-retains their traces. With -metrics-addr the process serves per-op
// counters and latency histograms, engine and cluster-health gauges on
// /metrics (Prometheus text format) and the Go profiler on /debug/pprof:
//
//	docstored -metrics-addr 127.0.0.1:9216 -trace-sample 0.05 -profile-slowms 50
//
// Clients connect with the wire.Client API or cmd/docstore-shell.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers on DefaultServeMux
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"docstore/internal/metrics"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/replset"
	"docstore/internal/sharding"
	"docstore/internal/storage"
	"docstore/internal/trace"
	"docstore/internal/wal"
	"docstore/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:27017", "listen address")
	name := flag.String("name", "docstored", "server name reported in stats")
	ramGB := flag.Int64("ram-gb", 0, "advertised RAM in GiB (informational, drives working-set reporting)")
	cursorTimeout := flag.Duration("cursor-timeout", wire.DefaultCursorTimeout, "idle timeout after which abandoned server-side cursors are reaped")
	dataDir := flag.String("data-dir", "", "data directory; enables the write-ahead log and crash recovery when set")
	walSync := flag.String("wal-sync", "group", "WAL sync policy: always (fsync per write), group (group commit) or none")
	walGroupInterval := flag.Duration("wal-group-interval", 0, "extra coalescing window for the group-commit leader (0 = flush as soon as the previous fsync completes)")
	walSegmentMB := flag.Int64("wal-segment-mb", 0, "WAL segment rotation size in MiB (0 = default)")
	checkpointEvery := flag.Duration("checkpoint-every", 0, "interval between automatic checkpoints (0 = only the shutdown checkpoint)")
	changeStreamBuffer := flag.Int("changestream-buffer", 0, "per-watcher change stream event buffer; a watcher that falls this far behind is invalidated and must resume from its token (0 = default)")
	replicas := flag.Int("replicas", 1, "replica set size: this server as primary plus N-1 in-memory secondaries; writes may then use writeConcern w > 1")
	shards := flag.Int("shards", 0, "run an in-process sharded cluster: N shard servers behind a query router (the mongos role). Data-plane requests fan out across shards, shardCollection declares a shard key, and checkpoint is cluster-consistent. With -data-dir each shard is durable under <data-dir>/shardN. Incompatible with -replicas > 1")
	writeConcern := flag.String("write-concern", "1", "default write concern for writes that carry none: a member count or \"majority\", optionally +j (e.g. 1, majority, 2+j)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for /metrics (Prometheus text) and /debug/pprof (empty = off)")
	traceSample := flag.Float64("trace-sample", 0.01, "fraction of requests whose span trees are retained for getTraces; slow requests are always retained")
	traceRing := flag.Int("trace-ring", trace.DefaultRingSize, "completed traces kept in memory for getTraces (oldest evicted first)")
	profileSlowMS := flag.Int("profile-slowms", 100, "slow-op threshold in milliseconds: operations at or above it enter the profiler ring and force trace retention")
	flag.Parse()

	defaultWC, err := storage.ParseWriteConcernString(*writeConcern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docstored: %v\n", err)
		os.Exit(1)
	}
	if *replicas < 1 {
		fmt.Fprintf(os.Stderr, "docstored: -replicas must be >= 1\n")
		os.Exit(1)
	}
	if defaultWC.W > *replicas {
		fmt.Fprintf(os.Stderr, "docstored: -write-concern %s cannot be satisfied by %d replica(s)\n", *writeConcern, *replicas)
		os.Exit(1)
	}

	sharded := *shards > 0
	if sharded && *replicas > 1 {
		fmt.Fprintf(os.Stderr, "docstored: -shards and -replicas > 1 are mutually exclusive\n")
		os.Exit(1)
	}

	slowThreshold := time.Duration(*profileSlowMS) * time.Millisecond
	backend := mongod.NewServer(mongod.Options{Name: *name, RAMBytes: *ramGB << 30, SlowOpThreshold: slowThreshold})
	durable := *dataDir != ""
	durabilityFor := func(srv *mongod.Server, dir string) mongod.RecoveryStats {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docstored: %v\n", err)
			os.Exit(1)
		}
		stats, err := srv.EnableDurability(mongod.Durability{
			Dir:                 dir,
			Sync:                policy,
			GroupCommitInterval: *walGroupInterval,
			SegmentMaxBytes:     *walSegmentMB << 20,
			ChangeStreamBuffer:  *changeStreamBuffer,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "docstored: durability: %v\n", err)
			os.Exit(1)
		}
		return stats
	}
	if durable && !sharded {
		stats := durabilityFor(backend, *dataDir)
		fmt.Printf("docstored: recovered from %s (checkpoint lsn %d, %d collection snapshots, %d wal records replayed)\n",
			*dataDir, stats.CheckpointLSN, stats.CollectionsLoaded, stats.RecordsReplayed)
	}

	// -shards: an in-process cluster — N shard servers behind a query
	// router, each durable under its own <data-dir>/shardN so the shards
	// recover independently while the router's checkpoint keeps their
	// durable states mutually consistent. The backend server holds no data
	// in this mode; stats and watch reach the shards through the router.
	var router *mongos.Router
	var shardServers []*mongod.Server
	if sharded {
		router = mongos.NewRouter(sharding.NewConfigServer(), mongos.Options{Parallel: true})
		for i := 0; i < *shards; i++ {
			shardName := fmt.Sprintf("%s-shard%d", *name, i)
			shard := mongod.NewServer(mongod.Options{Name: shardName, SlowOpThreshold: slowThreshold})
			if durable {
				dir := filepath.Join(*dataDir, fmt.Sprintf("shard%d", i))
				stats := durabilityFor(shard, dir)
				fmt.Printf("docstored: shard %s recovered from %s (checkpoint lsn %d, %d collection snapshots, %d wal records replayed)\n",
					shardName, dir, stats.CheckpointLSN, stats.CollectionsLoaded, stats.RecordsReplayed)
			}
			router.AddShard(shardName, shard)
			shardServers = append(shardServers, shard)
		}
		fmt.Printf("docstored: routing across %d in-process shards\n", *shards)
	}

	var rs *replset.ReplicaSet
	var oplogWAL *wal.WAL
	if *replicas > 1 {
		members := []*mongod.Server{backend}
		for i := 1; i < *replicas; i++ {
			members = append(members, mongod.NewServer(mongod.Options{Name: fmt.Sprintf("%s-sec%d", *name, i)}))
		}
		rs, err = replset.New(*name, members...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docstored: %v\n", err)
			os.Exit(1)
		}
		if durable {
			// The oplog has its own WAL beside the primary's: reload it so
			// replication resumes where the last process stopped. The primary
			// already rebuilt its state through its own recovery, so it is
			// marked caught up; the volatile secondaries replay from zero.
			oplogDir := filepath.Join(*dataDir, "oplog")
			n, err := rs.LoadOplogFromWAL(oplogDir)
			if err != nil && !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "docstored: reloading oplog: %v\n", err)
				os.Exit(1)
			}
			if n > 0 {
				entries := rs.Oplog()
				rs.MarkApplied(backend.Name(), entries[len(entries)-1].Seq())
				fmt.Printf("docstored: reloaded %d oplog entries from %s\n", n, oplogDir)
			}
			policy, _ := wal.ParseSyncPolicy(*walSync)
			oplogWAL, err = wal.Open(wal.Options{
				Dir:                 oplogDir,
				Sync:                policy,
				GroupCommitInterval: *walGroupInterval,
				SegmentMaxBytes:     *walSegmentMB << 20,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "docstored: opening oplog wal: %v\n", err)
				os.Exit(1)
			}
			rs.AttachWAL(oplogWAL)
		}
		rs.SetDefaultWriteConcern(defaultWC)
		rs.StartReplication()
		fmt.Printf("docstored: replica set %q with %d members, default write concern {w: %s}\n",
			*name, *replicas, defaultWC.WString())
	}

	srv := wire.NewServer(backend)
	srv.SetCursorTimeout(*cursorTimeout)
	if rs != nil {
		srv.SetReplicaSet(rs)
	}
	if router != nil {
		srv.SetRouter(router)
	}
	srv.SetDefaultWriteConcern(defaultWC)
	tracer := trace.New(trace.Options{
		SampleRate:    *traceSample,
		SlowThreshold: slowThreshold,
		RingSize:      *traceRing,
	})
	srv.SetTracer(tracer)
	if rs != nil {
		// Per-member replication lag and apply recency as labeled gauges.
		backend.Metrics().AddGaugeSource("", rs.HealthGauges)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docstored: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("docstored %q listening on %s\n", *name, bound)

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		// The pprof import registered its handlers on DefaultServeMux; mount
		// /metrics beside them so one listener serves both.
		http.Handle("/metrics", metrics.Handler(srv.Metrics(), backend.Metrics()))
		metricsSrv = &http.Server{Addr: *metricsAddr, Handler: http.DefaultServeMux}
		go func() {
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "docstored: metrics listener: %v\n", err)
			}
		}()
		fmt.Printf("docstored: serving /metrics and /debug/pprof on %s\n", *metricsAddr)
	}

	// checkpointNow is the one checkpoint entry point: stand-alone it
	// captures the backend; sharded it takes the router's cluster-consistent
	// checkpoint (every shard captured under one simultaneous write hold).
	checkpointNow := func() {
		if router != nil {
			st, err := router.Checkpoint()
			if err != nil {
				fmt.Fprintf(os.Stderr, "docstored: cluster checkpoint: %v\n", err)
				return
			}
			for shardName, sst := range st.Shards {
				if !sst.Skipped {
					fmt.Printf("docstored: shard %s checkpoint at lsn %d (%d collections, %d segments pruned)\n",
						shardName, sst.LSN, sst.Collections, sst.SegmentsPruned)
				}
			}
			return
		}
		if st, err := backend.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "docstored: checkpoint: %v\n", err)
		} else if !st.Skipped {
			fmt.Printf("docstored: checkpoint at lsn %d (%d collections, %d segments pruned)\n",
				st.LSN, st.Collections, st.SegmentsPruned)
		}
	}

	stopCheckpoints := make(chan struct{})
	var checkpointLoop sync.WaitGroup
	if durable && *checkpointEvery > 0 {
		checkpointLoop.Add(1)
		go func() {
			defer checkpointLoop.Done()
			ticker := time.NewTicker(*checkpointEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					checkpointNow()
				case <-stopCheckpoints:
					return
				}
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("docstored: shutting down")
	close(stopCheckpoints)
	// Wait out any in-flight periodic checkpoint: the shutdown checkpoint
	// below would otherwise be refused as already-in-progress, and closing
	// the WAL under a running checkpoint would fail its pruning.
	checkpointLoop.Wait()
	if metricsSrv != nil {
		metricsSrv.Close()
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "docstored: close: %v\n", err)
		os.Exit(1)
	}
	if rs != nil {
		// Fails any write still waiting on a quorum and stops the appliers
		// before the logs underneath them close.
		rs.Close()
	}
	if oplogWAL != nil {
		if err := oplogWAL.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "docstored: closing oplog wal: %v\n", err)
		}
	}
	if durable {
		// A shutdown checkpoint makes the next startup a snapshot load
		// instead of a long replay, and prunes the log while we are at it.
		// Sharded, it is cluster-consistent: every shard's durable state
		// restores to the same capture point.
		checkpointNow()
		if sharded {
			for _, shard := range shardServers {
				if err := shard.CloseDurability(); err != nil {
					fmt.Fprintf(os.Stderr, "docstored: closing shard wal: %v\n", err)
					os.Exit(1)
				}
			}
		} else if err := backend.CloseDurability(); err != nil {
			fmt.Fprintf(os.Stderr, "docstored: closing wal: %v\n", err)
			os.Exit(1)
		}
	}
}
