// Quorum replication: background per-member appliers, write-concern waiters,
// fault injection (kill/restart), and rollback-epoch resync. The lifecycle
// is StartReplication → writes via BulkWrite wait on a quorum waiter until
// enough members have applied their oplog entry → Close. Until
// StartReplication runs no applier does: writes land on the primary and in
// the oplog, secondaries stay where they are, and a w>1 write waits.
package replset

import (
	"errors"
	"sort"
	"time"

	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// ErrPrimaryDown reports a write routed to a killed primary. The set stays
// writable again once StepDown elects a live member or Restart revives the
// old one.
var ErrPrimaryDown = errors.New("replset: primary is down; step down to elect a new one")

// quorumWaiter is one write blocked in BulkWrite's quorum wait. err is written
// under rs.mu before done is closed, so a receiver on done reads it safely.
type quorumWaiter struct {
	lsn  int64
	need int
	wstr string
	err  error
	done chan struct{}
}

// defaultWCTimer is the production wtimeout source: a real timer, or no
// deadline channel at all for wtimeout 0 (wait indefinitely). Tests inject
// their own source via SetWTimeoutTimer so wtimeout expiry is a test-driven
// event, never a sleep race.
func defaultWCTimer(d time.Duration) (<-chan time.Time, func() bool) {
	if d <= 0 {
		return nil, func() bool { return false }
	}
	t := time.NewTimer(d)
	return t.C, t.Stop
}

// SetWTimeoutTimer replaces the wtimeout timer source. f receives the
// concern's WTimeout and returns the expiry channel plus a stop function; a
// nil channel means no deadline. Call before the set accepts writes.
func (rs *ReplicaSet) SetWTimeoutTimer(f func(time.Duration) (<-chan time.Time, func() bool)) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.wcTimer = f
}

// SetDefaultWriteConcern sets the concern applied to writes that do not
// carry one (rs.Insert/Update/Delete, and BulkWrite with a zero
// BulkOptions.WriteConcern). Call before the set accepts writes.
func (rs *ReplicaSet) SetDefaultWriteConcern(wc storage.WriteConcern) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.defaultWC = wc
}

// StartReplication launches one applier goroutine per member. Each applier
// tails the oplog from its member's applied watermark, so secondaries catch
// up continuously instead of waiting for Sync, and quorum waiters resolve as
// appliers advance. Idempotent while running; pair with Close.
func (rs *ReplicaSet) StartReplication() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.replicating || rs.closed {
		return
	}
	rs.replicating = true
	for _, m := range rs.members {
		rs.appliers.Add(1)
		go rs.applyLoop(m)
	}
}

// Sync waits until every live member has applied the oplog tip, so the
// caller can read any member's state after its writes. Killed members are
// left out; they catch up after Restart. The appliers are the only path an
// entry takes to a member, so Sync on a set whose appliers were never
// started, or have stopped, returns an error instead of waiting for
// progress that cannot come.
func (rs *ReplicaSet) Sync() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.replicating {
		return errors.New("replset: Sync before StartReplication: no applier is running")
	}
	rs.waitCaughtUpLocked()
	if rs.closed {
		return errors.New("replset: Sync on a closed replica set")
	}
	return nil
}

// Close stops the appliers and fails every outstanding quorum waiter with a
// "replica set closed" WriteConcernError. Idempotent. The member servers
// themselves are left untouched — they belong to the caller.
func (rs *ReplicaSet) Close() {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return
	}
	rs.closed = true
	for w := range rs.waiters {
		w.err = &storage.WriteConcernError{W: w.wstr, Replicated: rs.ackCountLocked(w.lsn), Reason: "replica set closed"}
		close(w.done)
		delete(rs.waiters, w)
	}
	rs.replCond.Broadcast()
	rs.mu.Unlock()
	rs.appliers.Wait()
}

// Kill marks a member down: its applier parks, and writes fail with
// ErrPrimaryDown if it was the primary. Waiters whose
// quorum just became unreachable fail immediately rather than hang until
// wtimeout. The member's data is left intact — a kill models a crashed
// process whose disk survives.
func (rs *ReplicaSet) Kill(name string) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.hasMemberLocked(name) {
		return errors.New("replset: no member named " + name)
	}
	rs.down[name] = true
	rs.failUnreachableWaitersLocked()
	rs.replCond.Broadcast()
	return nil
}

// Restart revives a killed member. Its applier resumes from the applied
// watermark — or, if an election rolled back entries the member had applied,
// wipes it and replays the surviving log from the start — before the member
// counts toward any quorum again.
func (rs *ReplicaSet) Restart(name string) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.hasMemberLocked(name) {
		return errors.New("replset: no member named " + name)
	}
	delete(rs.down, name)
	rs.replCond.Broadcast()
	return nil
}

// Alive reports whether the named member is not currently killed.
func (rs *ReplicaSet) Alive(name string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.hasMemberLocked(name) && !rs.down[name]
}

func (rs *ReplicaSet) hasMemberLocked(name string) bool {
	for _, m := range rs.members {
		if m.Name() == name {
			return true
		}
	}
	return false
}

// MarkApplied records that a member's state already reflects the log up to
// lsn without replaying anything. It is the restart fast path for a member
// that rebuilt itself through its own recovery — docstored's primary
// replays its storage WAL, then the reloaded oplog (LoadOplogFromWAL) must
// not be replayed onto it a second time.
func (rs *ReplicaSet) MarkApplied(name string, lsn int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.hasMemberLocked(name) {
		return
	}
	if lsn > rs.applied[name] {
		rs.applied[name] = lsn
	}
	rs.memberEpoch[name] = rs.epoch
	rs.checkWaitersLocked()
	rs.replCond.Broadcast()
}

// BulkWrite executes a batch through the primary, appends one oplog record
// for it under the same lock hold (log order equals apply order), and blocks
// until the effective write concern is satisfied: the primary's journal
// record and the oplog record are durable per their WALs' sync policy
// (fsynced when j is set), and W members — primary included — have applied
// the entry. Only the ordering work happens under the set's lock; the two
// durability waits and the quorum wait run after it is released and overlap
// each other, so a write pays the longest of them rather than their sum, and
// concurrent writes share each log's group commit. On wtimeout, quorum loss,
// or rollback the batch result carries a *storage.WriteConcernError in
// DurabilityErr; the write itself has still applied on the primary and
// keeps replicating in the background. A batch the primary could not journal
// is not applied anywhere: it returns the journal's error and never enters
// the oplog.
func (rs *ReplicaSet) BulkWrite(db, coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	rs.mu.Lock()
	wc := opts.WriteConcern
	if wc.IsZero() {
		wc = rs.defaultWC
	}
	if opts.Journaled {
		wc.Journal = true
	}
	primary := rs.members[rs.primary]
	if rs.down[primary.Name()] {
		rs.mu.Unlock()
		return storage.BulkResult{DurabilityErr: ErrPrimaryDown}
	}
	// The parent span rides down to the primary's mongod and storage layers
	// through the options; the oplog and quorum waits below attach their own
	// children so a trace shows where a w>1 write spent its time.
	res, journal := primary.Database(db).BulkApply(coll, ops, storage.BulkOptions{Ordered: opts.Ordered, Journaled: wc.Journal, Trace: opts.Trace})
	journaled := res.LastLSN != 0
	if !journaled {
		// A volatile primary, or a journal that refused the record: there is
		// nothing to wait for, so the primary's profile entry and span close
		// here rather than after the set's own work below.
		_ = journal.Wait()
	}
	if res.DurabilityErr != nil || res.Attempted == 0 {
		// The journal refused the record, or the primary refused the batch
		// whole (storage.ErrDocumentTooDeep), so it applied nothing; logging
		// the batch would have the secondaries apply what it did not.
		rs.mu.Unlock()
		return res
	}
	rec := &wal.Record{
		Kind: wal.KindBatch, DB: db, Coll: coll, Ordered: opts.Ordered,
		Ops: loggedOps(primary, db, coll, ops, &res),
	}
	commit, err := rs.appendOplogLocked(rec)
	if err != nil {
		rs.mu.Unlock()
		// The primary's record is logged and applied: it must still be
		// resolved, or its LSN is never notified and change streams stall.
		if journaled {
			res.DurabilityErr = journal.Wait()
		}
		if res.DurabilityErr == nil {
			res.DurabilityErr = err
		}
		return res
	}
	lsn := rec.LSN
	// Register the quorum waiter under the same lock hold as the append: if
	// an election truncates this entry in the gap before a later
	// registration, no applier would ever reach the LSN and the wait would
	// hang. Registered here, rollbackLocked fails the waiter instead.
	var w *quorumWaiter
	var timer func(time.Duration) (<-chan time.Time, func() bool)
	if need := wc.NeedAck(len(rs.members)); need > 1 && rs.ackCountLocked(lsn) < need {
		w = &quorumWaiter{lsn: lsn, need: need, wstr: wc.WString(), done: make(chan struct{})}
		rs.waiters[w] = struct{}{}
		rs.failUnreachableWaitersLocked() // quorum may be impossible already
		timer = rs.wcTimer
	}
	rs.mu.Unlock()

	// From here nothing is ordered any more: the primary's journal fsync, the
	// oplog's fsync and the secondaries' applies are all in flight at once.
	// The journal wait gets its own goroutine so the two fsyncs overlap; it
	// is joined below, so the primary's commit resolves exactly once.
	oplogSpan := opts.Trace.Child("replset.oplogCommitWait")
	oplogSpan.SetAttr("lsn", lsn)
	var journalDone chan error
	if journaled {
		journalDone = make(chan error, 1)
		go func() { journalDone <- journal.Wait() }()
	}
	res.LastLSN = lsn // the oplog LSN, which quorum waits key on
	oplogErr := waitOplog(commit, wc.Journal)
	oplogSpan.Finish()
	var quorumErr error
	if w != nil {
		quorumSpan := opts.Trace.Child("replset.quorumWait")
		quorumSpan.SetAttr("w", wc.WString())
		quorumSpan.SetAttr("need", w.need)
		// Always drain the waiter — it must leave rs.waiters even when the
		// batch already failed at the durability layer.
		quorumErr = rs.waitQuorum(w, lsn, wc, timer)
		quorumSpan.Finish()
	}
	if journalDone != nil {
		res.DurabilityErr = <-journalDone
	}
	if res.DurabilityErr == nil {
		res.DurabilityErr = oplogErr
	}
	if res.DurabilityErr == nil {
		res.DurabilityErr = quorumErr
	}
	return res
}

// loggedOps builds the replication record for an executed batch. Inserts
// are logged as their post-apply clone (the primary assigned any missing
// _id in place, so every member materializes the identical document), and
// an update that upserted is rewritten as an insert of its post-image for
// the same reason. Failed or unattempted ops are logged verbatim: replay
// fails them identically, which is convergence.
func loggedOps(primary *mongod.Server, db, coll string, ops []storage.WriteOp, res *storage.BulkResult) []storage.WriteOp {
	logged := make([]storage.WriteOp, len(ops))
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case storage.InsertOp:
			logged[i] = storage.InsertWriteOp(cloneOrNil(op.Doc))
		case storage.UpdateOp:
			if res.UpsertedIDs != nil && res.UpsertedIDs[i] != nil {
				if doc := primary.Database(db).Collection(coll).FindID(res.UpsertedIDs[i]); doc != nil {
					logged[i] = storage.InsertWriteOp(doc.Clone())
					continue
				}
			}
			logged[i] = storage.UpdateWriteOp(query.UpdateSpec{
				Query: cloneOrNil(op.Update.Query), Update: cloneOrNil(op.Update.Update),
				Upsert: op.Update.Upsert, Multi: op.Update.Multi,
			})
		default:
			logged[i] = storage.DeleteWriteOp(cloneOrNil(op.Filter), op.Multi)
		}
	}
	return logged
}

// waitQuorum blocks on a registered waiter until it resolves or the
// concern's wtimeout fires, whichever is first. It always unregisters the
// waiter before returning.
func (rs *ReplicaSet) waitQuorum(w *quorumWaiter, lsn int64, wc storage.WriteConcern, timer func(time.Duration) (<-chan time.Time, func() bool)) error {
	deadline, stop := timer(wc.WTimeout)
	defer stop()
	select {
	case <-w.done:
		return w.err
	case <-deadline:
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, pending := rs.waiters[w]; !pending {
		return w.err // resolved concurrently with the deadline firing
	}
	delete(rs.waiters, w)
	return &storage.WriteConcernError{W: wc.WString(), Replicated: rs.ackCountLocked(lsn), Reason: "wtimeout"}
}

// ackCountLocked counts members whose applied watermark covers lsn. A down
// member still counts: it applied the entry before dying, and its copy
// survives the crash (Kill models a process crash, not disk loss).
func (rs *ReplicaSet) ackCountLocked(lsn int64) int {
	n := 0
	for _, m := range rs.members {
		if rs.applied[m.Name()] >= lsn {
			n++
		}
	}
	return n
}

// checkWaitersLocked resolves every waiter whose quorum is now satisfied.
func (rs *ReplicaSet) checkWaitersLocked() {
	for w := range rs.waiters {
		if rs.ackCountLocked(w.lsn) >= w.need {
			w.err = nil
			close(w.done)
			delete(rs.waiters, w)
		}
	}
}

// failUnreachableWaitersLocked fails every waiter whose quorum can no
// longer be reached: the members that already applied the entry plus the
// live members that still could are fewer than the concern demands.
// Without this, a w:majority write with a majority of members killed would
// hang until wtimeout (or forever).
func (rs *ReplicaSet) failUnreachableWaitersLocked() {
	for w := range rs.waiters {
		acked := rs.ackCountLocked(w.lsn)
		potential := acked
		for _, m := range rs.members {
			if !rs.down[m.Name()] && rs.applied[m.Name()] < w.lsn {
				potential++
			}
		}
		if potential < w.need {
			w.err = &storage.WriteConcernError{W: w.wstr, Replicated: acked, Reason: "quorum unreachable"}
			close(w.done)
			delete(rs.waiters, w)
		}
	}
}

// applyLoop is one member's background applier: it tails the oplog from the
// member's applied watermark, parking while the member is down or caught
// up, and resyncing from scratch when an election rolled back entries the
// member had applied (its epoch went stale).
func (rs *ReplicaSet) applyLoop(m *mongod.Server) {
	defer rs.appliers.Done()
	name := m.Name()
	for {
		rs.mu.Lock()
		var entry *OplogEntry
		for {
			if rs.closed {
				rs.mu.Unlock()
				return
			}
			if !rs.down[name] {
				if rs.memberEpoch[name] != rs.epoch {
					break // diverged: resync below
				}
				if e := rs.nextEntryLocked(name); e != nil {
					entry = e
					break
				}
			}
			rs.replCond.Wait()
		}
		if rs.memberEpoch[name] != rs.epoch {
			// The member applied (or was applying) entries an election
			// discarded; its state is no prefix of the surviving log. Undo by
			// rebuilding: wipe everything, reset the watermark, replay.
			rs.memberEpoch[name] = rs.epoch
			rs.applied[name] = 0
			rs.mu.Unlock()
			wipeMember(m)
			continue
		}
		e := *entry
		rs.applying[name] = e.Seq()
		rs.mu.Unlock()
		// Apply errors are deliberately dropped — see applyEntry's batch
		// case: deterministic replay of the primary's own failure is
		// convergence, and infrastructure errors on a volatile member have
		// nothing to escalate to. The entry is still marked applied so the
		// applier cannot spin on it.
		_ = applyEntry(m, e)
		rs.mu.Lock()
		rs.applying[name] = 0
		if rs.memberEpoch[name] == rs.epoch && rs.applied[name] < e.Seq() {
			rs.applied[name] = e.Seq()
			rs.lastApply[name] = rs.now()
			rs.checkWaitersLocked()
			rs.replCond.Broadcast()
		}
		rs.mu.Unlock()
	}
}

// nextEntryLocked returns the first retained oplog entry past the member's
// applied watermark, nil when caught up.
func (rs *ReplicaSet) nextEntryLocked(name string) *OplogEntry {
	last := rs.applied[name]
	i := sort.Search(len(rs.oplog), func(i int) bool { return rs.oplog[i].Seq() > last })
	if i >= len(rs.oplog) {
		return nil
	}
	return &rs.oplog[i]
}

// waitCaughtUpLocked blocks until every live, epoch-current member has
// applied the oplog tip. Killed members are excluded — they catch up on
// Restart — so syncing a degraded set does not hang.
func (rs *ReplicaSet) waitCaughtUpLocked() {
	for !rs.closed {
		tip := rs.tipLocked()
		caughtUp := true
		for _, m := range rs.members {
			name := m.Name()
			if rs.down[name] {
				continue
			}
			if rs.memberEpoch[name] != rs.epoch || rs.applied[name] < tip {
				caughtUp = false
				break
			}
		}
		if caughtUp {
			return
		}
		rs.replCond.Wait()
	}
}

// wipeMember drops every database on a member, the first half of a rollback
// resync.
func wipeMember(m *mongod.Server) {
	for _, db := range m.DatabaseNames() {
		m.DropDatabase(db)
	}
}
