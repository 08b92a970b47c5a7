package storage

import "docstore/internal/bson"

// Journal is the write-ahead hook a durability layer attaches to a
// collection. The collection logs every mutation through it BEFORE applying
// it, under the collection's write lock, so log order equals apply order and
// recovery can replay the log deterministically. The package deliberately
// does not depend on the log implementation; internal/wal provides one and
// internal/mongod wires it up per collection.
type Journal interface {
	// LogBatch records a batch of operations about to be applied. It is
	// called under the collection write lock and must only buffer — the
	// returned CommitWaiter is waited on after the lock is released, which
	// is what lets a group commit coalesce concurrent writers into one
	// fsync. Insert ops have their _id already assigned, so a replay
	// regenerates identical documents.
	LogBatch(ops []WriteOp, ordered bool) (CommitWaiter, error)
	// LogClear records the collection being wiped in place (Drop, and
	// ReplaceContents ahead of its insert batch: the aggregation $out stage).
	LogClear() (CommitWaiter, error)
	// LogEnsureIndex records a secondary index creation, so recovery
	// rebuilds the index and replayed writes see the same unique-key
	// enforcement the original run did.
	LogEnsureIndex(spec *bson.Doc, unique bool) (CommitWaiter, error)
	// LogDropIndex records an index removal by name.
	LogDropIndex(name string) (CommitWaiter, error)
}

// CommitWaiter is the acknowledgement handle of one logged record.
type CommitWaiter interface {
	// LSN returns the log sequence number the record was assigned.
	LSN() int64
	// Wait blocks until the record is durable under the journal's sync
	// policy. journaled (writeConcern {j: true}) forces an fsync even under
	// policies that would otherwise acknowledge before syncing.
	Wait(journaled bool) error
}

// CommitNotifier is the optional post-commit hook of a commit handle: when a
// journal's CommitWaiter also implements it, the collection calls Notify
// exactly once per logged record, after the mutation has been applied, the
// collection lock released and the durability wait resolved. Change streams
// hang off this hook: firing outside the lock keeps watchers off the write
// path's critical section, and firing after the wait means a watcher never
// sees an event for a write that is not yet acknowledged. EVERY logged
// record must be notified — even one whose apply failed — because the
// change-stream delivery frontier advances only through contiguous LSNs.
type CommitNotifier interface {
	Notify()
}

// SetJournal attaches a write-ahead journal to the collection. It must be
// called before the collection starts serving writes (the durability layer
// attaches journals at collection creation or at the end of recovery).
func (c *Collection) SetJournal(j Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
}

// LastLSN returns the log sequence number of the last journaled mutation
// reflected in the published version, 0 when the collection was never
// journaled. A pinned Snapshot pairs its record data with the same number
// (Snapshot.LastLSN), captured in one version, which is what makes
// checkpoints consistent per collection.
func (c *Collection) LastLSN() int64 {
	return c.current.Load().lastLSN
}

// SetReplayLSN records that the collection's state reflects the log up to
// lsn. Recovery calls it after loading a checkpoint snapshot and after
// replaying each structural record (ReplayBatches advances the watermark
// itself); it never moves the watermark backwards.
func (c *Collection) SetReplayLSN(lsn int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lsn > c.lastLSN {
		c.lastLSN = lsn
		c.publishLocked()
	}
}

// logLocked journals a batch about to be applied under the held write lock.
// It returns (nil, nil) when no journal is attached. Insert ops get their
// _id assigned here — before the record is encoded — so the logged document
// is byte-identical to the one a replay will insert.
func (c *Collection) logLocked(ops []WriteOp, ordered bool) (CommitWaiter, error) {
	if c.journal == nil {
		return nil, nil
	}
	for i := range ops {
		if ops[i].Kind == InsertOp && ops[i].Doc != nil {
			ensureID(ops[i].Doc)
		}
	}
	commit, err := c.journal.LogBatch(ops, ordered)
	if err != nil {
		return nil, err
	}
	c.lastLSN = commit.LSN()
	return commit, nil
}

// logClearLocked journals a collection wipe under the held write lock.
func (c *Collection) logClearLocked() (CommitWaiter, error) {
	if c.journal == nil {
		return nil, nil
	}
	commit, err := c.journal.LogClear()
	if err != nil {
		return nil, err
	}
	c.lastLSN = commit.LSN()
	return commit, nil
}

// logEnsureIndexLocked journals an index creation under the held write lock.
func (c *Collection) logEnsureIndexLocked(spec *bson.Doc, unique bool) (CommitWaiter, error) {
	if c.journal == nil {
		return nil, nil
	}
	commit, err := c.journal.LogEnsureIndex(spec, unique)
	if err != nil {
		return nil, err
	}
	c.lastLSN = commit.LSN()
	return commit, nil
}

// logDropIndexLocked journals an index removal under the held write lock.
func (c *Collection) logDropIndexLocked(name string) (CommitWaiter, error) {
	if c.journal == nil {
		return nil, nil
	}
	commit, err := c.journal.LogDropIndex(name)
	if err != nil {
		return nil, err
	}
	c.lastLSN = commit.LSN()
	return commit, nil
}

// waitCommit resolves a commit handle after the collection lock has been
// released, translating the journal's policy into the caller's
// acknowledgement, then fires the post-commit notification hook. A nil
// commit (no journal) is a no-op. Every code path that obtains a commit must
// reach waitCommit — including apply-error paths — or the change-stream
// frontier would stall on the unnotified LSN.
func waitCommit(commit CommitWaiter, journaled bool) error {
	if commit == nil {
		return nil
	}
	err := commit.Wait(journaled)
	notifyCommit(commit)
	return err
}

// notifyCommit fires the post-commit hook of a logged record, once the wait
// that covers it has resolved. A nil commit is a no-op.
func notifyCommit(commit CommitWaiter) {
	if n, ok := commit.(CommitNotifier); ok {
		n.Notify()
	}
}
