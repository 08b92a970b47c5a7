package mongod

import (
	"sync"
	"time"

	"docstore/internal/storage"
)

// ProfileEntry records one profiled operation, mirroring the system.profile
// collection.
type ProfileEntry struct {
	Op         string
	Collection string
	Database   string
	Duration   time.Duration
	At         time.Time
	// BatchOps and BatchErrors describe writes: how many ops the batch
	// carried (one for a scalar write) and how many of them failed. Both are
	// zero for reads.
	BatchOps    int
	BatchErrors int
	// COWBytesCopied is the record data the batch's page copies duplicated:
	// the copy-on-write cost this write paid so concurrent snapshots keep
	// their view. Zero for reads and for writes that only touched pages the
	// batch already owned.
	COWBytesCopied int64
	// PlanSummary, KeysExamined, DocsExamined, SnapshotVersion and Isolation
	// describe a profiled query's execution: the access path (the driving
	// index and the ones intersected with it), the work it did — index
	// entries read, then documents fetched — and the storage version its scan
	// was pinned to (see storage.Plan). They are zero for writes and for
	// queries profiled before their plan is known.
	PlanSummary     string
	KeysExamined    int
	DocsExamined    int
	SnapshotVersion int64
	Isolation       string
}

// profileCap bounds the profiler's memory: the ring keeps the most recent
// profileCap entries.
const profileCap = 10000

// profiler collects operation timings above the configured threshold in a
// fixed-capacity ring: entries append until the ring is full, then each new
// entry overwrites the oldest in place — O(1) per record, where the old
// append-and-reslice scheme paid an O(n) memmove every record once full.
// With a non-zero slow-op threshold the backing array grows with use
// (append until profileCap), so an idle server pays nothing; with a zero
// threshold — every op retained, the ring certain to fill — NewServer
// preallocates the full capacity so no append-doubling reallocation (a
// multi-hundred-KB copy once the ring is large) lands mid-request.
type profiler struct {
	mu      sync.Mutex
	entries []ProfileEntry
	// head indexes the oldest entry once the ring is full (len == cap);
	// before that it stays 0 and entries is already in insertion order.
	head int
}

// record appends one entry, overwriting the oldest when full. The caller
// holds p.mu.
func (p *profiler) record(entry ProfileEntry) {
	if len(p.entries) < profileCap {
		p.entries = append(p.entries, entry)
		return
	}
	p.entries[p.head] = entry
	p.head = (p.head + 1) % profileCap
}

// snapshot copies the ring in insertion order (oldest first). The caller
// holds p.mu.
func (p *profiler) snapshot() []ProfileEntry {
	out := make([]ProfileEntry, 0, len(p.entries))
	out = append(out, p.entries[p.head:]...)
	out = append(out, p.entries[:p.head]...)
	return out
}

// clock returns the server's profiling clock: the wall clock unless a test
// injected one (see Server.clock), so drain-spanning duration assertions can
// advance time explicitly instead of sleeping.
func (s *Server) clockTime() time.Time {
	if s.clock != nil {
		return s.clock()
	}
	return time.Now()
}

// profile starts timing an aggregation; the returned function stops the timer
// and records the entry if it clears the server's slow-op threshold.
func (db *Database) profile(op, coll string) func() {
	start := db.server.clockTime()
	return func() {
		db.record(ProfileEntry{Op: op, Collection: coll, At: start}, nil)
	}
}

// profileBulk opens the profile entry of a write — the only function that
// does, since every write reaches the server as a batch. A one-op batch is
// labelled with its op's kind ("insert", "update", "delete"), whichever entry
// point or write concern produced it; any other batch is "bulkWrite". The
// returned function stops the timer and records the entry together with the
// per-op failure count the batch produced.
func (db *Database) profileBulk(coll string, ops []storage.WriteOp) func(batchErrors int) {
	op := "bulkWrite"
	if len(ops) == 1 {
		op = ops[0].Kind.String()
	}
	start := db.server.clockTime()
	c := db.Collection(coll)
	cowStart := c.COWBytesCopied()
	return func(batchErrors int) {
		db.record(ProfileEntry{
			Op: op, Collection: coll, At: start,
			BatchOps: len(ops), BatchErrors: batchErrors,
			COWBytesCopied: c.COWBytesCopied() - cowStart,
		}, nil)
	}
}

// recordPlan records a profiled query together with its execution plan: the
// access path summary, the examined-document count, and the snapshot
// version/isolation the scan was pinned to. Streamed queries call it when
// their cursor finishes, so the duration spans the whole drain.
func (db *Database) recordPlan(op, coll string, start time.Time, plan storage.Plan) {
	db.record(ProfileEntry{
		Op: op, Collection: coll, At: start,
		KeysExamined:    plan.KeysExamined,
		DocsExamined:    plan.DocsExamined,
		SnapshotVersion: plan.SnapshotVersion,
		Isolation:       plan.Isolation,
	}, &plan)
}

// record stamps the entry's duration, feeds the always-on per-op latency
// histogram, and keeps the entry in the profile ring when the elapsed time
// clears the server's slow-op threshold. entry.At must hold the start time.
// plan, when not nil, is rendered into the entry's PlanSummary only for an
// entry the ring keeps.
func (db *Database) record(entry ProfileEntry, plan *storage.Plan) {
	elapsed := db.server.clockTime().Sub(entry.At)
	// Every op lands in its histogram regardless of the slow-op threshold —
	// the threshold gates only what the bounded profile ring retains.
	db.server.om.observe(entry.Op, elapsed)
	if elapsed < db.server.opts.SlowOpThreshold {
		return
	}
	entry.Database = db.name
	entry.Duration = elapsed
	if plan != nil {
		entry.PlanSummary = plan.String()
	}
	p := &db.server.profiler
	p.mu.Lock()
	p.record(entry)
	p.mu.Unlock()
}

// Profile returns a copy of the recorded profile entries, oldest first.
func (s *Server) Profile() []ProfileEntry {
	s.profiler.mu.Lock()
	defer s.profiler.mu.Unlock()
	return s.profiler.snapshot()
}

// ResetProfile clears the recorded profile entries.
func (s *Server) ResetProfile() {
	s.profiler.mu.Lock()
	s.profiler.entries = nil
	s.profiler.head = 0
	s.profiler.mu.Unlock()
}
