package mongod

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"docstore/internal/bson"
	"docstore/internal/changestream"
	"docstore/internal/metrics"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// Durability configures the server's write-ahead log and checkpointing.
type Durability struct {
	// Dir is the data directory: segment files live in Dir/wal and
	// checkpoint snapshots in Dir/checkpoint-<lsn>.
	Dir string
	// Sync is the WAL sync policy (default wal.SyncGroupCommit).
	Sync wal.SyncPolicy
	// GroupCommitInterval is the optional extra coalescing window of the
	// group commit leader; zero flushes as soon as the previous fsync
	// completes.
	GroupCommitInterval time.Duration
	// SegmentMaxBytes rotates WAL segments past this size (0 = default).
	SegmentMaxBytes int64
	// ChangeStreamBuffer is the default per-watcher event buffer of change
	// streams opened with Server.Watch (0 = changestream.DefaultBufferSize).
	// A watcher that falls this many events behind the write stream is
	// invalidated and must resume from its last token.
	ChangeStreamBuffer int
}

// RecoveryStats reports what EnableDurability restored.
type RecoveryStats struct {
	// CheckpointLSN is the capture LSN of the checkpoint that seeded the
	// state, 0 when starting fresh.
	CheckpointLSN int64
	// CollectionsLoaded is how many collection snapshots were read.
	CollectionsLoaded int
	// RecordsReplayed is how many WAL records were applied on top.
	RecordsReplayed int
}

// CheckpointStats reports what a checkpoint did.
type CheckpointStats struct {
	// LSN is the checkpoint's capture LSN (its directory suffix).
	LSN int64
	// Collections is how many collection snapshots were written.
	Collections int
	// SegmentsPruned is how many WAL segment files became obsolete.
	SegmentsPruned int
	// Skipped reports that the newest checkpoint already covers the whole
	// log (no journaled mutation since), so nothing was written.
	Skipped bool
}

// durableState is the per-server durability runtime, published atomically on
// the Server so the hot write path reads it without locks.
type durableState struct {
	wal    *wal.WAL
	dir    string
	opts   Durability
	broker *changestream.Broker

	checkpointMu chan struct{} // 1-buffered: held while a checkpoint runs
}

const manifestName = "MANIFEST.json"

// checkpointManifest is the JSON document describing one checkpoint.
type checkpointManifest struct {
	// CaptureLSN is the WAL position read before the first snapshot; no
	// record at or below it is missing from the checkpoint.
	CaptureLSN  int64             `json:"capture_lsn"`
	Collections []checkpointEntry `json:"collections"`
}

type checkpointEntry struct {
	DB      string          `json:"db"`
	Coll    string          `json:"coll"`
	File    string          `json:"file"`
	LastLSN int64           `json:"last_lsn"`
	Count   int             `json:"count"`
	Indexes []manifestIndex `json:"indexes,omitempty"`
}

// manifestIndex persists one secondary index definition; the spec document
// travels as its extended-JSON rendering inside the JSON manifest.
type manifestIndex struct {
	Spec   string `json:"spec"`
	Unique bool   `json:"unique,omitempty"`
}

// collJournal adapts the server's WAL to the storage engine's Journal
// interface for one collection, and feeds the change-stream broker: every
// logged record comes back as a notifyingCommit whose post-commit hook
// publishes the record's events.
type collJournal struct {
	w      *wal.WAL
	broker *changestream.Broker
	db     string
	coll   string
}

// notifyingCommit wraps a WAL commit so that storage's post-commit hook
// (storage.CommitNotifier, fired by waitCommit after the apply and the
// durability wait) publishes the record to the change-stream broker. Publish
// sequences records by LSN, so the out-of-order arrival of hooks from
// concurrent collections is fine; what matters is that every logged record
// reaches Publish exactly once.
type notifyingCommit struct {
	*wal.Commit
	broker *changestream.Broker
	rec    *wal.Record
	events []*changestream.Event
}

// Notify implements storage.CommitNotifier.
func (n *notifyingCommit) Notify() {
	if n.rec.Kind == wal.KindBatch {
		// Batch events are pre-built (or deliberately absent) at log time;
		// deriving them here would race in-place updates of the stored
		// documents the record references.
		n.broker.Publish(n.rec.LSN, n.events)
		return
	}
	n.broker.Publish(n.rec.LSN, changestream.EventsFromRecord(n.rec, false))
}

func (j *collJournal) wrap(rec *wal.Record) (storage.CommitWaiter, error) {
	commit, err := j.w.Append(rec)
	if err != nil {
		return nil, err
	}
	nc := &notifyingCommit{Commit: commit, broker: j.broker, rec: rec}
	if rec.Kind == wal.KindBatch && j.broker.WantsEvents(rec.DB, rec.Coll) {
		// Built under the collection lock (LogBatch is called from
		// logLocked), AFTER the append: a subscriber whose join point
		// precedes this record has, by the WAL-mutex ordering, already
		// raised the interest index this check reads, so no watcher can
		// need events this skips — and writes to namespaces nobody
		// watches skip materialization entirely. The clone pins the
		// insert payloads against later in-place updates of the stored
		// documents.
		nc.events = changestream.EventsFromRecord(rec, true)
	}
	return nc, nil
}

func (j *collJournal) LogBatch(ops []storage.WriteOp, ordered bool) (storage.CommitWaiter, error) {
	return j.wrap(&wal.Record{Kind: wal.KindBatch, DB: j.db, Coll: j.coll, Ordered: ordered, Ops: ops})
}

func (j *collJournal) LogClear() (storage.CommitWaiter, error) {
	return j.wrap(&wal.Record{Kind: wal.KindClear, DB: j.db, Coll: j.coll})
}

func (j *collJournal) LogEnsureIndex(spec *bson.Doc, unique bool) (storage.CommitWaiter, error) {
	return j.wrap(&wal.Record{Kind: wal.KindEnsureIndex, DB: j.db, Coll: j.coll, Spec: spec, Unique: unique})
}

func (j *collJournal) LogDropIndex(name string) (storage.CommitWaiter, error) {
	return j.wrap(&wal.Record{Kind: wal.KindDropIndex, DB: j.db, Coll: j.coll, Index: name})
}

// DurabilityEnabled reports whether the server writes a WAL.
func (s *Server) DurabilityEnabled() bool { return s.durable.Load() != nil }

// WALDir returns the WAL segment directory, or "" when durability is off.
func (s *Server) WALDir() string {
	ds := s.durable.Load()
	if ds == nil {
		return ""
	}
	return ds.wal.Dir()
}

// EnableDurability opens the write-ahead log under d.Dir, recovers the
// server's state (newest checkpoint snapshot first, then a replay of the
// records the snapshot does not cover, with any torn tail truncated away),
// and attaches the WAL to every collection so subsequent writes are logged
// before they apply. It must be called before the server starts serving.
//
// Recovery populates the server, so it is meant for servers constructed
// empty; collections that already hold data keep it, but that data is not
// crash-safe until the next Checkpoint.
func (s *Server) EnableDurability(d Durability) (RecoveryStats, error) {
	var stats RecoveryStats
	if s.durable.Load() != nil {
		return stats, fmt.Errorf("mongod: durability already enabled")
	}
	if d.Dir == "" {
		return stats, fmt.Errorf("mongod: Durability.Dir is required")
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return stats, err
	}
	w, err := wal.Open(wal.Options{
		Dir:                 filepath.Join(d.Dir, "wal"),
		Sync:                d.Sync,
		GroupCommitInterval: d.GroupCommitInterval,
		SegmentMaxBytes:     d.SegmentMaxBytes,
	})
	if err != nil {
		return stats, err
	}
	// Phase 1: seed from the newest complete checkpoint, recording each
	// collection's snapshot watermark so the replay below can skip records
	// the snapshot already contains.
	cpLSN, cpDir, err := newestCheckpoint(d.Dir)
	if err != nil {
		w.Close()
		return stats, err
	}
	if cpDir != "" {
		n, err := s.loadCheckpoint(cpDir)
		if err != nil {
			w.Close()
			return stats, fmt.Errorf("mongod: loading checkpoint %s: %w", cpDir, err)
		}
		stats.CheckpointLSN = cpLSN
		stats.CollectionsLoaded = n
	}
	// Phase 2: replay the log on top. Collections have no journal attached
	// yet, so replayed writes are not re-logged. Consecutive batch records of
	// one collection are handed to storage as a run — one lock hold and one
	// published version per run, not per record — and any other record kind,
	// another collection or replayRunCap ends the run.
	var (
		run            []storage.ReplayBatch
		runDB, runColl string
	)
	flushRun := func() {
		if len(run) > 0 {
			stats.RecordsReplayed += s.Database(runDB).Collection(runColl).ReplayBatches(run)
			run = run[:0]
		}
	}
	err = wal.Replay(w.Dir(), func(rec *wal.Record) error {
		if rec.Kind != wal.KindBatch {
			flushRun()
			if s.applyRecord(rec) {
				stats.RecordsReplayed++
			}
			return nil
		}
		if len(run) == replayRunCap || rec.DB != runDB || rec.Coll != runColl {
			flushRun()
			runDB, runColl = rec.DB, rec.Coll
		}
		run = append(run, storage.ReplayBatch{LSN: rec.LSN, Ops: rec.Ops, Ordered: rec.Ordered})
		return nil
	})
	flushRun()
	if err != nil {
		w.Close()
		return stats, fmt.Errorf("mongod: replaying wal: %w", err)
	}
	// Phase 3: go live. The change-stream broker starts at the
	// post-recovery frontier (replayed records are state reconstruction,
	// not new changes). Publishing durableState first makes lazily-created
	// collections pick up journals; then existing collections are wired.
	ds := &durableState{
		wal: w, dir: d.Dir, opts: d,
		broker:       changestream.NewBroker(w),
		checkpointMu: make(chan struct{}, 1),
	}
	s.durable.Store(ds)
	for _, dbName := range s.DatabaseNames() {
		db := s.Database(dbName)
		for _, collName := range db.CollectionNames() {
			db.Collection(collName).SetJournal(&collJournal{w: w, broker: ds.broker, db: dbName, coll: collName})
		}
	}
	// Export the durability-health signals through the server registry: the
	// WAL owns its fsync/batch histograms (the wal package has no registry),
	// so they are attached here; the change-stream buffer depths are polled
	// at scrape time.
	s.om.registry.RegisterHistogramSeries(metricWALFsyncDuration,
		"write-path fsync latency", "seconds", w.FsyncHistogram())
	s.om.registry.RegisterHistogramSeries(metricWALBatchSize,
		"records made durable per write-path fsync (group-commit batch size)", "", w.BatchHistogram())
	s.om.registry.AddGaugeSource("", func() []metrics.Gauge {
		st := ds.broker.Stats()
		return []metrics.Gauge{
			{Name: "docstore_changestream_watchers", Value: int64(st.Watchers)},
			{Name: "docstore_changestream_buffered_events", Value: st.BufferedEvents},
			{Name: "docstore_changestream_max_buffer_depth", Value: int64(st.MaxBufferDepth)},
			{Name: "docstore_changestream_slow_consumers_total", Value: st.SlowConsumers},
		}
	})
	return stats, nil
}

// replayRunCap bounds how many batch records recovery applies per published
// version: long enough that a run's page and tree-path copies amortize to
// nothing, short enough that the decoded records it holds stay a small
// fraction of the collection being rebuilt.
const replayRunCap = 512

// applyRecord applies one replayed structural WAL record (batch records go
// through storage.ReplayBatches in runs), reporting whether it did anything.
// Records already reflected in a checkpoint snapshot are skipped by comparing
// against each collection's snapshot watermark.
func (s *Server) applyRecord(rec *wal.Record) bool {
	switch rec.Kind {
	case wal.KindClear:
		coll := s.Database(rec.DB).Collection(rec.Coll)
		if rec.LSN <= coll.LastLSN() {
			return false
		}
		coll.Drop()
		coll.SetReplayLSN(rec.LSN)
		return true
	case wal.KindEnsureIndex:
		coll := s.Database(rec.DB).Collection(rec.Coll)
		if rec.LSN <= coll.LastLSN() {
			return false
		}
		// A backfill failure (unique violation on the data as of this
		// point in the log) failed identically before the crash; either
		// way the outcome is deterministic.
		_, _ = coll.EnsureIndexDoc(rec.Spec, rec.Unique)
		coll.SetReplayLSN(rec.LSN)
		return true
	case wal.KindDropIndex:
		coll := s.Database(rec.DB).Collection(rec.Coll)
		if rec.LSN <= coll.LastLSN() {
			return false
		}
		coll.DropIndex(rec.Index)
		coll.SetReplayLSN(rec.LSN)
		return true
	case wal.KindDropCollection:
		db := s.Database(rec.DB)
		// A snapshot watermark at or past the drop means the collection in
		// memory is a later incarnation restored from the checkpoint.
		if db.HasCollection(rec.Coll) && db.Collection(rec.Coll).LastLSN() >= rec.LSN {
			return false
		}
		return db.DropCollection(rec.Coll)
	case wal.KindDropDatabase:
		db, ok := s.lookupDatabase(rec.DB)
		if !ok {
			return false
		}
		// The drop kills exactly the collections that existed before it:
		// those whose watermark is below the drop LSN. Collections restored
		// from a checkpoint taken after a same-name database was recreated
		// carry higher watermarks and survive — an all-or-nothing skip here
		// would let pre-drop collections replayed from older records ride
		// along with them and resurrect.
		dropped := false
		for _, coll := range db.Collections() {
			if coll.LastLSN() < rec.LSN {
				db.DropCollection(coll.Name())
				dropped = true
			}
		}
		if len(db.CollectionNames()) == 0 {
			dropped = s.DropDatabase(rec.DB) || dropped
		}
		return dropped
	default:
		return false
	}
}

// logStructuralLocked appends a drop-collection / drop-database record
// while the caller still holds the lock that removed the entry, so the
// record's LSN orders after every write of the dropped incarnation and
// before any write of a same-name successor (which must re-enter that lock
// to be created). The returned commit is waited on — and its change-stream
// notification fired — after the lock is released; an append error means the
// drop never entered the log and the caller must undo the in-memory removal.
// A nil commit means durability is off.
func (s *Server) logStructuralLocked(kind wal.RecordKind, db, coll string) (*notifyingCommit, error) {
	ds := s.durable.Load()
	if ds == nil {
		return nil, nil
	}
	rec := &wal.Record{Kind: kind, DB: db, Coll: coll}
	commit, err := ds.wal.Append(rec)
	if err != nil {
		return nil, err
	}
	return &notifyingCommit{Commit: commit, broker: ds.broker, rec: rec}, nil
}

// newestCheckpoint finds the highest-LSN complete checkpoint directory.
func newestCheckpoint(dir string) (int64, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, "", err
	}
	bestLSN, bestDir := int64(-1), ""
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "checkpoint-") {
			continue
		}
		lsn, err := strconv.ParseInt(strings.TrimPrefix(name, "checkpoint-"), 10, 64)
		if err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, name, manifestName)); err != nil {
			continue
		}
		if lsn > bestLSN {
			bestLSN, bestDir = lsn, filepath.Join(dir, name)
		}
	}
	if bestDir == "" {
		return 0, "", nil
	}
	return bestLSN, bestDir, nil
}

// loadCheckpoint restores every collection snapshot of one checkpoint.
func (s *Server) loadCheckpoint(cpDir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(cpDir, manifestName))
	if err != nil {
		return 0, err
	}
	var m checkpointManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("parsing manifest: %w", err)
	}
	for _, e := range m.Collections {
		coll := s.Database(e.DB).Collection(e.Coll)
		f, err := os.Open(filepath.Join(cpDir, e.File))
		if err != nil {
			return 0, err
		}
		err = coll.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return 0, fmt.Errorf("snapshot %s (%s.%s): %w", e.File, e.DB, e.Coll, err)
		}
		if got := coll.Count(); got != e.Count {
			return 0, fmt.Errorf("snapshot %s (%s.%s): loaded %d documents, manifest says %d", e.File, e.DB, e.Coll, got, e.Count)
		}
		for _, ix := range e.Indexes {
			spec, err := bson.FromJSONString(ix.Spec)
			if err != nil {
				return 0, fmt.Errorf("snapshot %s (%s.%s): index spec %q: %w", e.File, e.DB, e.Coll, ix.Spec, err)
			}
			if _, err := coll.EnsureIndexDoc(spec, ix.Unique); err != nil {
				return 0, fmt.Errorf("snapshot %s (%s.%s): rebuilding index %s: %w", e.File, e.DB, e.Coll, ix.Spec, err)
			}
		}
		coll.SetReplayLSN(e.LastLSN)
	}
	return len(m.Collections), nil
}

// CheckpointCapture is a pinned capture point: one storage snapshot per
// collection plus the WAL position, all taken while every writer on the
// server was held. Everything the capture references describes one instant —
// no collection is ahead of another, and no record at or below the capture
// LSN is missing from the snapshots. Captures are cheap (a pin per
// collection); the expensive disk streaming happens later, against the
// pinned versions, with writes flowing. Release the capture when done
// (CheckpointFrom releases it for you).
type CheckpointCapture struct {
	lsn      int64
	entries  []captureEntry
	released bool
}

type captureEntry struct {
	db, coll string
	snap     *storage.Snapshot
}

// CaptureLSN returns the WAL position of the capture point: every journaled
// mutation at or below it is reflected in the capture's snapshots.
func (cp *CheckpointCapture) CaptureLSN() int64 { return cp.lsn }

// Collections returns how many collection snapshots the capture pins.
func (cp *CheckpointCapture) Collections() int { return len(cp.entries) }

// Release unpins every snapshot of the capture. Idempotent.
func (cp *CheckpointCapture) Release() {
	if cp.released {
		return
	}
	cp.released = true
	for _, e := range cp.entries {
		e.snap.Release()
	}
}

// HoldAllWrites blocks every mutation on the server — document writes, index
// churn, collection and database creation and drops — until the returned
// release function runs (it is idempotent). Reads are unaffected: they pin
// published versions. The locks are taken in the global order the drop paths
// already establish (server, then each database sorted by name, then each
// collection sorted by name), so a hold cannot deadlock against concurrent
// structural operations. Holds are meant to be brief: pin a capture under
// one (CaptureHeld), then release.
func (s *Server) HoldAllWrites() (release func()) {
	s.mu.Lock()
	dbNames := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		dbNames = append(dbNames, n)
	}
	sort.Strings(dbNames)
	var dbs []*Database
	var collReleases []func()
	for _, dbName := range dbNames {
		db := s.dbs[dbName]
		db.mu.Lock()
		dbs = append(dbs, db)
		collNames := make([]string, 0, len(db.colls))
		for n := range db.colls {
			collNames = append(collNames, n)
		}
		sort.Strings(collNames)
		for _, collName := range collNames {
			collReleases = append(collReleases, db.colls[collName].HoldWrites())
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for i := len(collReleases) - 1; i >= 0; i-- {
				collReleases[i]()
			}
			for i := len(dbs) - 1; i >= 0; i-- {
				dbs[i].mu.Unlock()
			}
			s.mu.Unlock()
		})
	}
}

// CaptureHeld pins a capture point. The caller must be holding every writer
// via HoldAllWrites: with writers held, the WAL position is a true cut — any
// record it covers was applied and published by its collection before the
// hold could be acquired, and no new record can enter the log until release —
// so the pinned snapshots and the LSN describe one mutually consistent
// instant across every collection. The cluster checkpoint relies on the
// hold/capture split: the router holds every shard simultaneously, captures
// them all, releases, and only then pays for streaming.
func (s *Server) CaptureHeld() *CheckpointCapture {
	cp := &CheckpointCapture{}
	if ds := s.durable.Load(); ds != nil {
		cp.lsn = ds.wal.LastLSN()
	}
	dbNames := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		dbNames = append(dbNames, n)
	}
	sort.Strings(dbNames)
	for _, dbName := range dbNames {
		db := s.dbs[dbName]
		collNames := make([]string, 0, len(db.colls))
		for n := range db.colls {
			collNames = append(collNames, n)
		}
		sort.Strings(collNames)
		for _, collName := range collNames {
			cp.entries = append(cp.entries, captureEntry{
				db: dbName, coll: collName, snap: db.colls[collName].Snapshot(),
			})
		}
	}
	return cp
}

// CaptureCheckpoint establishes a capture point: it briefly holds every
// writer, pins one snapshot per collection plus the WAL position, and
// releases the holds. The pause is O(collections) pin registrations — no
// disk I/O happens under it.
func (s *Server) CaptureCheckpoint() *CheckpointCapture {
	release := s.HoldAllWrites()
	defer release()
	return s.CaptureHeld()
}

// checkpointStreamHook, when non-nil, runs before each collection snapshot
// streams to disk. Fault-injection tests use it to kill a checkpoint
// mid-stream and prove the atomic-rename publication: a checkpoint directory
// is either wholly at its capture point or cleanly absent.
var checkpointStreamHook func(db, coll string) error

// Checkpoint writes a snapshot of every collection, fsyncs it into a
// checkpoint directory, prunes WAL segments the checkpoint makes obsolete
// and removes older checkpoints. The snapshot set is a single capture point
// (see CaptureCheckpoint): writers pause only for the pin instant, then keep
// flowing while the pinned versions stream to disk, and recovery restores
// every collection to exactly the same cut before replaying the log tail.
func (s *Server) Checkpoint() (CheckpointStats, error) {
	cp := s.CaptureCheckpoint()
	return s.CheckpointFrom(cp)
}

// CheckpointFrom writes the checkpoint a previously pinned capture
// describes, then releases the capture. The capture may be arbitrarily old:
// the snapshots are immutable, so the directory that lands on disk is the
// capture point regardless of what has committed since. The cluster
// checkpoint uses this to capture every shard under one simultaneous hold
// and stream afterwards.
func (s *Server) CheckpointFrom(cp *CheckpointCapture) (CheckpointStats, error) {
	defer cp.Release()
	var stats CheckpointStats
	ds := s.durable.Load()
	if ds == nil {
		return stats, fmt.Errorf("mongod: durability is not enabled")
	}
	select {
	case ds.checkpointMu <- struct{}{}:
		defer func() { <-ds.checkpointMu }()
	default:
		return stats, fmt.Errorf("mongod: checkpoint already in progress")
	}

	captureLSN := cp.lsn
	// Every mutation is journaled, so an unchanged capture LSN means the
	// newest checkpoint still describes the exact current state; periodic
	// checkpointing of an idle server then costs nothing.
	if lsn, dir, err := newestCheckpoint(ds.dir); err == nil && dir != "" && lsn == captureLSN {
		return CheckpointStats{LSN: captureLSN, Skipped: true}, nil
	}
	tmp := filepath.Join(ds.dir, "checkpoint.tmp")
	if err := os.RemoveAll(tmp); err != nil {
		return stats, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return stats, err
	}
	manifest := checkpointManifest{CaptureLSN: captureLSN}
	for idx, e := range cp.entries {
		if checkpointStreamHook != nil {
			if err := checkpointStreamHook(e.db, e.coll); err != nil {
				return stats, err
			}
		}
		file := fmt.Sprintf("snap-%06d.bin", idx)
		info := e.snap.Info()
		if err := writeSnapshotFile(filepath.Join(tmp, file), e.snap); err != nil {
			return stats, err
		}
		entry := checkpointEntry{
			DB: e.db, Coll: e.coll, File: file, LastLSN: info.LastLSN, Count: info.Count,
		}
		for _, ix := range info.Indexes {
			entry.Indexes = append(entry.Indexes, manifestIndex{Spec: ix.Spec.ToJSON(), Unique: ix.Unique})
		}
		manifest.Collections = append(manifest.Collections, entry)
	}
	data, err := json.MarshalIndent(&manifest, "", "  ")
	if err != nil {
		return stats, err
	}
	if err := writeFileSync(filepath.Join(tmp, manifestName), data); err != nil {
		return stats, err
	}
	if err := wal.SyncDir(tmp); err != nil {
		return stats, err
	}
	final := filepath.Join(ds.dir, fmt.Sprintf("checkpoint-%016d", captureLSN))
	if err := os.RemoveAll(final); err != nil {
		return stats, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return stats, err
	}
	if err := wal.SyncDir(ds.dir); err != nil {
		return stats, err
	}
	stats.LSN = captureLSN
	stats.Collections = len(manifest.Collections)

	// Prune: because the capture is a true cut, every record at or below the
	// capture LSN is reflected in some captured snapshot (or belongs to a
	// collection dropped before the capture, which the checkpoint rightly
	// omits), so the capture LSN itself is the prune cutoff — no
	// min-over-watermarks conservatism needed.
	pruned, err := ds.wal.Prune(captureLSN)
	stats.SegmentsPruned = pruned
	if err != nil {
		return stats, err
	}
	// Older checkpoints are superseded.
	entries, err := os.ReadDir(ds.dir)
	if err != nil {
		return stats, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "checkpoint-") || filepath.Join(ds.dir, name) == final {
			continue
		}
		if lsn, err := strconv.ParseInt(strings.TrimPrefix(name, "checkpoint-"), 10, 64); err == nil && lsn < captureLSN {
			if err := os.RemoveAll(filepath.Join(ds.dir, name)); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}

// CloseDurability invalidates every change-stream watcher, then flushes and
// closes the WAL. The server must not serve writes afterwards; call
// Checkpoint first for a fast next startup.
func (s *Server) CloseDurability() error {
	ds := s.durable.Load()
	if ds == nil {
		return nil
	}
	// Watchers go first: a resume replay racing the log teardown would
	// read a closing file set.
	ds.broker.Close()
	return ds.wal.Close()
}

// ChangeStreams returns the server's change-stream broker, or nil when
// durability is off. Tests and the wire layer's stats use it; streams are
// opened with Server.Watch.
func (s *Server) ChangeStreams() *changestream.Broker {
	ds := s.durable.Load()
	if ds == nil {
		return nil
	}
	return ds.broker
}

// WALHealth snapshots the WAL's durability-health histograms — fsync
// latency and the group-commit batch size each fsync covered — along with
// its append/sync counters. ok is false when durability is off.
func (s *Server) WALHealth() (fsync, batch metrics.HistogramSnapshot, stats wal.Stats, ok bool) {
	ds := s.durable.Load()
	if ds == nil {
		return fsync, batch, stats, false
	}
	return ds.wal.FsyncDurations(), ds.wal.BatchSizes(), ds.wal.Stats(), true
}

// writeSnapshotFile streams an already-pinned immutable snapshot to disk.
// The (arbitrarily slow) disk write happens entirely outside the
// collection's write path, so writes keep flowing at full speed while the
// checkpoint streams, and the manifest entry built from the same snapshot
// (count, watermark, index definitions) is consistent with the streamed data
// by construction.
func writeSnapshotFile(path string, snap *storage.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteData(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeFileSync(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sortedCheckpointNames is a test helper listing checkpoint directories.
func sortedCheckpointNames(dir string) []string {
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "checkpoint-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}
