// Package replset implements a minimal replica set: a primary that accepts
// writes, secondaries that apply the primary's oplog, write-concern quorum
// waits, and fail-over by promotion. The thesis describes replica sets as the
// redundancy mechanism backing shards (§2.1.3.1). docstored -replicas runs
// one, the router takes one as a shard (mongos.AddReplicaShard), and
// benchmark/'s ingest_replicated workload measures its write path. Reads go
// to a member server directly; the set itself only writes.
//
// An oplog entry reaches a member one way only: that member's applier
// (StartReplication), which tails the oplog from the member's applied
// watermark and rebuilds the member by wipe-and-replay after an election
// discarded entries it held.
//
// Since the durability subsystem landed, the oplog and the write-ahead log
// share one format: every oplog entry carries a wal.Record, the same logical
// batch record the storage engine journals. A replica set can therefore be
// given its own WAL (AttachWAL) to make the oplog durable, and an oplog can
// be reloaded from any WAL directory (LoadOplogFromWAL) so secondaries
// converge by replaying exactly what recovery would replay.
//
// A write through the set is a pipeline (BulkWrite). Under the set's one
// lock it does only what must be ordered: the primary journals and applies
// the batch, the batch is appended to the oplog, the quorum waiter is
// registered. The lock is then released with two commits pending — the
// primary's journal record and the oplog record — and the write waits for
// both fsyncs at once while the secondaries are already applying, then for
// the quorum. No fsync runs under the lock, so concurrent writes join each
// log's group commit, and a write's durability costs the longer of the two
// fsyncs, not both in turn.
package replset

import (
	"fmt"
	"sync"
	"time"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// OplogEntry is one replicated operation: a WAL record plus the wall-clock
// time the primary accepted it. The entry's sequence number is the record's
// LSN — assigned by the attached WAL when the oplog is durable, or by the
// in-memory counter otherwise, so both modes produce the same log.
type OplogEntry struct {
	At     time.Time
	Record *wal.Record
}

// Seq returns the entry's sequence number.
func (e *OplogEntry) Seq() int64 { return e.Record.LSN }

// ReplicaSet is a primary plus a set of secondaries.
type ReplicaSet struct {
	name string

	// now is the set's clock (injectable in tests): it stamps oplog entries
	// and the per-member apply timestamps behind the health gauges.
	now func() time.Time

	mu        sync.Mutex
	replCond  *sync.Cond // signals oplog growth, applier progress, liveness flips
	members   []*mongod.Server
	primary   int
	oplog     []OplogEntry
	wal       *wal.WAL             // nil: volatile oplog with in-memory seqs
	applied   map[string]int64     // member name -> last applied seq
	applying  map[string]int64     // member name -> seq its applier holds outside the lock (0: none)
	lastApply map[string]time.Time // member name -> when applied last advanced
	nextSeq   int64

	// Quorum replication state; the machinery lives in quorum.go.
	replicating bool
	closed      bool
	down        map[string]bool // member name -> killed by fault injection
	epoch       int64
	memberEpoch map[string]int64 // member name -> rollback epoch its state belongs to
	waiters     map[*quorumWaiter]struct{}
	defaultWC   storage.WriteConcern
	wcTimer     func(time.Duration) (<-chan time.Time, func() bool)
	appliers    sync.WaitGroup
}

// New creates a replica set with the given member servers; the first member
// starts as primary.
func New(name string, members ...*mongod.Server) (*ReplicaSet, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("replset: at least one member is required")
	}
	rs := &ReplicaSet{
		name:        name,
		now:         time.Now,
		members:     members,
		applied:     make(map[string]int64),
		applying:    make(map[string]int64),
		lastApply:   make(map[string]time.Time),
		down:        make(map[string]bool),
		memberEpoch: make(map[string]int64),
		waiters:     make(map[*quorumWaiter]struct{}),
		wcTimer:     defaultWCTimer,
	}
	rs.replCond = sync.NewCond(&rs.mu)
	for _, m := range members {
		rs.applied[m.Name()] = 0
	}
	return rs, nil
}

// AttachWAL makes the oplog durable: every subsequent entry is appended to w
// (which assigns its LSN) under the set's lock and acknowledged under w's
// sync policy before the write returns — the wait happens after the lock is
// released, alongside the wait on the primary's own journal when it has one,
// so w's group commit covers every write in flight. Call it once, before the
// set starts accepting writes; the WAL must be empty or positioned after the
// current oplog (its next LSN is adopted as the sequence counter).
func (rs *ReplicaSet) AttachWAL(w *wal.WAL) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.wal = w
	rs.nextSeq = w.LastLSN()
}

// LoadOplogFromWAL reads every record of a WAL directory into the oplog
// buffer, replacing its contents. It is how a restarted set resumes
// replication from the durable log: once StartReplication runs, every
// member's applier replays the log from the start. No member is marked as
// having applied anything; a member that rebuilt itself through its own
// recovery is marked with MarkApplied before the appliers start.
func (rs *ReplicaSet) LoadOplogFromWAL(dir string) (int, error) {
	records, err := wal.ReadAll(dir)
	if err != nil {
		return 0, err
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.oplog = rs.oplog[:0]
	rs.nextSeq = 0
	for _, rec := range records {
		rs.oplog = append(rs.oplog, OplogEntry{At: rs.now(), Record: rec})
		rs.nextSeq = rec.LSN
	}
	for name := range rs.applied {
		rs.applied[name] = 0
		rs.memberEpoch[name] = rs.epoch
	}
	return len(rs.oplog), nil
}

// Name returns the replica set name.
func (rs *ReplicaSet) Name() string { return rs.name }

// Primary returns the current primary member.
func (rs *ReplicaSet) Primary() *mongod.Server {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.members[rs.primary]
}

// Secondaries returns the current secondary members.
func (rs *ReplicaSet) Secondaries() []*mongod.Server {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []*mongod.Server
	for i, m := range rs.members {
		if i != rs.primary {
			out = append(out, m)
		}
	}
	return out
}

// Members returns every member.
func (rs *ReplicaSet) Members() []*mongod.Server {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]*mongod.Server(nil), rs.members...)
}

// Oplog returns a copy of the retained oplog entries in sequence order.
func (rs *ReplicaSet) Oplog() []OplogEntry {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]OplogEntry(nil), rs.oplog...)
}

// Insert writes through the primary and appends an oplog entry. The apply
// and the oplog append happen under one lock hold, so oplog order always
// equals the primary's apply order — two concurrent writes can never land
// in the durable log in the opposite order they executed, which is what
// makes replaying the log (on a secondary or after a restart) converge to
// the primary's state. Only that much is serialized: the apply and the two
// log appends. The durability and quorum waits happen after the lock is
// released, so concurrent writes overlap them (see BulkWrite).
// Acknowledgement honours the set's default write concern (w: 1 unless
// SetDefaultWriteConcern raised it); BulkWrite takes an explicit concern.
func (rs *ReplicaSet) Insert(db, coll string, doc *bson.Doc) (any, error) {
	res := rs.BulkWrite(db, coll, []storage.WriteOp{storage.InsertWriteOp(doc)}, storage.BulkOptions{Ordered: true})
	return res.InsertedID()
}

// Update writes through the primary and appends an oplog entry; see Insert
// for the ordering and acknowledgement contract.
func (rs *ReplicaSet) Update(db, coll string, spec query.UpdateSpec) (storage.UpdateResult, error) {
	res := rs.BulkWrite(db, coll, []storage.WriteOp{storage.UpdateWriteOp(spec)}, storage.BulkOptions{Ordered: true})
	return res.UpdateResult()
}

// Delete writes through the primary and appends an oplog entry; see Insert
// for the ordering and acknowledgement contract.
func (rs *ReplicaSet) Delete(db, coll string, filter *bson.Doc, multi bool) (int, error) {
	res := rs.BulkWrite(db, coll, []storage.WriteOp{storage.DeleteWriteOp(filter, multi)}, storage.BulkOptions{Ordered: true})
	return res.Deleted, res.FirstError()
}

// appendOplogLocked stamps and retains one record under the caller's hold
// of rs.mu. With a WAL attached the record is appended there — which
// assigns its LSN — and the returned commit is waited on (waitOplog) after
// the lock is released so concurrent oplog fsyncs can group-commit; without
// one the in-memory counter assigns the sequence and the commit is nil.
func (rs *ReplicaSet) appendOplogLocked(rec *wal.Record) (*wal.Commit, error) {
	var commit *wal.Commit
	if rs.wal != nil {
		var err error
		commit, err = rs.wal.Append(rec)
		if err != nil {
			return nil, fmt.Errorf("replset: oplog append: %w", err)
		}
		rs.nextSeq = rec.LSN
	} else {
		rs.nextSeq++
		rec.LSN = rs.nextSeq
	}
	rs.oplog = append(rs.oplog, OplogEntry{At: rs.now(), Record: rec})
	primaryName := rs.members[rs.primary].Name()
	rs.applied[primaryName] = rec.LSN
	rs.lastApply[primaryName] = rs.now()
	rs.replCond.Broadcast() // wake appliers blocked on an empty tail
	return commit, nil
}

// waitOplog resolves a durable-oplog commit after rs.mu is released;
// journaled escalates the wait to a completed fsync ({j: true}).
func waitOplog(commit *wal.Commit, journaled bool) error {
	if commit == nil {
		return nil
	}
	return commit.Wait(journaled)
}

// applyEntry replays one oplog record against a member. Every member applies
// the same record, uncopied, and its appliers run at once: an inserted
// document is the one the primary stored, so each member stores that same
// *bson.Doc until an update installs its own shallow copy, and nothing in the
// record is written — loggedOps leaves no insert without an _id and no upsert
// without an id for a member's storage to fill in.
func applyEntry(m *mongod.Server, e OplogEntry) error {
	rec := e.Record
	switch rec.Kind {
	case wal.KindBatch:
		res := m.Database(rec.DB).BulkWrite(rec.Coll, rec.Ops, storage.BulkOptions{Ordered: rec.Ordered})
		// Per-op failures are not apply errors: the record replays the exact
		// batch the primary ran, so an op that failed there (duplicate _id,
		// malformed spec) fails identically here — same outcome, converged
		// state. Only infrastructure failures are errors.
		return res.DurabilityErr
	case wal.KindClear:
		m.Database(rec.DB).Collection(rec.Coll).Drop()
		return nil
	case wal.KindReplace:
		// The primary checked the rows before it logged them, so a
		// replacement refused here is an apply error.
		return m.Database(rec.DB).Collection(rec.Coll).ReplaceContents(rec.Docs())
	case wal.KindDropCollection:
		m.Database(rec.DB).DropCollection(rec.Coll)
		return nil
	case wal.KindDropDatabase:
		m.DropDatabase(rec.DB)
		return nil
	case wal.KindEnsureIndex:
		_, err := m.Database(rec.DB).Collection(rec.Coll).EnsureIndexDoc(rec.Spec, rec.Unique)
		return err
	case wal.KindDropIndex:
		m.Database(rec.DB).Collection(rec.Coll).DropIndex(rec.Index)
		return nil
	default:
		return fmt.Errorf("unknown oplog record kind %v", rec.Kind)
	}
}

// ReplicationLag returns, per secondary, how many oplog entries it has not
// yet applied.
func (rs *ReplicaSet) ReplicationLag() map[string]int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[string]int64)
	tip := rs.tipLocked()
	for i, m := range rs.members {
		if i == rs.primary {
			continue
		}
		lag := tip - rs.applied[m.Name()]
		if lag < 0 {
			lag = 0 // rolled-back member awaiting resync
		}
		out[m.Name()] = lag
	}
	return out
}

// tipLocked returns the sequence number of the newest retained oplog entry,
// zero when the log is empty. Post-election it can trail nextSeq: a durable
// log never reuses LSNs, so rolled-back sequence numbers stay burned.
func (rs *ReplicaSet) tipLocked() int64 {
	if n := len(rs.oplog); n > 0 {
		return rs.oplog[n-1].Seq()
	}
	return 0
}

// StepDown demotes the current primary and elects the live secondary with
// the most applied oplog entries, returning the new primary. With a single
// member, or when every secondary is down, the primary is retained.
//
// Election is where replication history can fork: entries the old primary
// acknowledged at w:1 may exist on no other member, and the new primary's
// log must win. StepDown therefore rolls the oplog back to the new
// primary's last applied sequence — discarded entries fail their pending
// quorum waits with a "rolled back" WriteConcernError, and any member whose
// state includes a discarded entry is marked for resync (wipe plus full
// replay) by bumping the rollback epoch. A write acknowledged at
// w:majority can never be rolled back: the elected member is the most
// caught-up live member, and a majority ack puts the entry on at least one
// member of every majority.
func (rs *ReplicaSet) StepDown() *mongod.Server {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.members) == 1 {
		return rs.members[rs.primary]
	}
	best, bestApplied := -1, int64(-1)
	for i, m := range rs.members {
		if i == rs.primary || rs.down[m.Name()] {
			continue
		}
		// An entry the member is applying counts: the apply runs to
		// completion, so the member will hold it. Electing at the watermark
		// below it would discard that entry and leave the new primary on the
		// old epoch, to be wiped by its own applier under the writes it is
		// serving — which then advance its watermark past the wiped entries.
		if a := max(rs.applied[m.Name()], rs.applying[m.Name()]); a > bestApplied {
			best, bestApplied = i, a
		}
	}
	if best < 0 {
		return rs.members[rs.primary] // no live secondary to promote
	}
	rs.primary = best
	rs.rollbackLocked(bestApplied)
	rs.replCond.Broadcast()
	return rs.members[rs.primary]
}

// rollbackLocked truncates the oplog to the newly elected primary's applied
// watermark, fast-forwards the rollback epoch of members whose state is a
// prefix of the surviving log, and fails quorum waiters on discarded
// entries. Members left on the old epoch (they applied a discarded entry,
// or are mid-apply of one) are rebuilt by wipe-and-replay before they count
// toward any quorum again.
func (rs *ReplicaSet) rollbackLocked(tip int64) {
	cut := len(rs.oplog)
	for cut > 0 && rs.oplog[cut-1].Seq() > tip {
		cut--
	}
	if cut == len(rs.oplog) {
		return // nothing beyond the new primary: every member holds a prefix
	}
	rs.oplog = rs.oplog[:cut]
	if rs.wal == nil {
		rs.nextSeq = tip // volatile sequences are reusable; durable LSNs are not
	}
	rs.epoch++
	for _, m := range rs.members {
		name := m.Name()
		if rs.applied[name] <= tip && rs.applying[name] <= tip {
			rs.memberEpoch[name] = rs.epoch
		}
	}
	for w := range rs.waiters {
		if w.lsn > tip {
			w.err = &storage.WriteConcernError{W: w.wstr, Replicated: 0, Reason: "rolled back"}
			close(w.done)
			delete(rs.waiters, w)
		}
	}
}
