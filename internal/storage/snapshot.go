package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"docstore/internal/bson"
)

// Snapshot is a pinned, immutable point-in-time view of a collection: the
// read-side handle of the MVCC engine. Pinning costs two atomic adds and an
// atomic load, and no locks; holding a snapshot never blocks writers, and
// concurrent commits, compactions and drops are invisible to it. Everything
// reachable through a snapshot — the record set, the document contents, the
// counters, the journal watermark and the index definitions — describes the
// single committed version that was current when the snapshot was taken.
//
// Snapshots are registered with the engine's pin tracking: while one is
// held, the version it pins (and every page reachable from it) is exempt
// from page recycling, and the engine gauges report the retention (live
// versions, oldest-pin age — see EngineStats). Call Release (or Close) when
// done; Release is idempotent and safe to call concurrently. A snapshot that
// is never released does not corrupt anything and its memory is still
// reclaimed by Go's garbage collector once unreachable — the engine merely
// loses the ability to recycle the pages it covered and the gauges keep
// counting it until its version falls out of tracking.
type Snapshot struct {
	coll     *Collection
	v        *version
	released atomic.Bool
}

// Snapshot pins the collection's current committed version. The pin gate
// makes the pin race-free against page recycling: the GC recycles only while
// no reader sits between loading the current version and registering the
// pin.
func (c *Collection) Snapshot() *Snapshot {
	c.pinGate.Add(1)
	v := c.current.Load()
	v.pins.Add(1)
	c.pinGate.Add(-1)
	return &Snapshot{coll: c, v: v}
}

// ErrVersionRetired is returned by SnapshotAt (and AtVersion queries) when
// the requested version is no longer tracked: either it was pruned once its
// pins dropped, or it never existed. Callers re-anchor by issuing a fresh
// query at the current version.
type ErrVersionRetired struct {
	Collection string
	Version    int64
}

func (e *ErrVersionRetired) Error() string {
	return fmt.Sprintf("storage: version %d of collection %q is not retained (hold a cursor open to anchor a read-at-version session)", e.Version, e.Collection)
}

// SnapshotAt pins the committed version with the given sequence number, the
// read-at-version entry point behind FindOptions.AtVersion. Version 0 pins
// the current version (exactly Snapshot). A superseded version can be pinned
// only while the engine still tracks it — it stays tracked while any
// snapshot pins it, so a session anchors itself by keeping its first
// query's cursor open and pointing follow-up queries at that version.
func (c *Collection) SnapshotAt(seq int64) (*Snapshot, error) {
	if seq == 0 {
		return c.Snapshot(), nil
	}
	// Fast path: the requested version is still current — pin it through
	// the gate exactly like Snapshot, no mutex.
	c.pinGate.Add(1)
	v := c.current.Load()
	if v.seq == seq {
		v.pins.Add(1)
		c.pinGate.Add(-1)
		return &Snapshot{coll: c, v: v}, nil
	}
	c.pinGate.Add(-1)
	// Slow path: search the tracked live list under the mutex. GC runs only
	// under the same mutex, so a version found here cannot be pruned before
	// its pin registers.
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range c.live {
		if v.seq == seq {
			v.pins.Add(1)
			return &Snapshot{coll: c, v: v}, nil
		}
	}
	return nil, &ErrVersionRetired{Collection: c.name, Version: seq}
}

// Release unpins the snapshot, allowing the engine to recycle the pages its
// version retained once no other snapshot covers them. It is idempotent and
// safe for concurrent use; reads through an already-released snapshot remain
// memory-safe (the version is immutable and garbage-collected), but may
// observe recycled pages, so release only after the last read.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	s.v.pins.Add(-1)
}

// Close releases the snapshot; it exists so snapshots satisfy io.Closer.
func (s *Snapshot) Close() error {
	s.Release()
	return nil
}

// Collection returns the name of the collection the snapshot was taken from.
func (s *Snapshot) Collection() string { return s.coll.name }

// Version returns the snapshot's version number: a per-collection sequence
// that increments with every committed write batch. Plans and the profiler
// surface it as snapshotVersion.
func (s *Snapshot) Version() int64 { return s.v.seq }

// Count returns the number of live documents in the snapshot.
func (s *Snapshot) Count() int { return s.v.count }

// DataSize returns the total encoded size of the snapshot's live documents.
func (s *Snapshot) DataSize() int { return s.v.dataSize }

// LastLSN returns the journal watermark of the snapshot: the LSN of the
// newest mutation its record set reflects, 0 when the collection was never
// journaled. Checkpoints pair it with the streamed data so recovery replays
// exactly the log records the snapshot does not contain.
func (s *Snapshot) LastLSN() int64 { return s.v.lastLSN }

// Indexes returns the definitions of the user-created indexes live at the
// snapshot, sorted by index name.
func (s *Snapshot) Indexes() []IndexMeta {
	return append([]IndexMeta(nil), s.v.indexMeta...)
}

// Info summarizes the snapshot in the legacy SnapshotInfo shape the
// checkpoint manifest is built from.
func (s *Snapshot) Info() SnapshotInfo {
	return SnapshotInfo{Count: s.v.count, LastLSN: s.v.lastLSN, Indexes: s.Indexes()}
}

// FindID returns the document with the given _id in the snapshot, or nil: a
// point lookup in the version's frozen _id_ tree, which takes no locks.
func (s *Snapshot) FindID(id any) *bson.Doc {
	positions := s.v.indexes.byName(idIndexName).Lookup(id)
	if len(positions) == 0 {
		return nil
	}
	return s.v.record(positions[0]).doc
}

// Scan invokes fn for every live document in insertion order until fn
// returns false. It is entirely lock-free. Pages the engine GC reclaimed
// (every slot tombstoned) are skipped wholesale.
func (s *Snapshot) Scan(fn func(*bson.Doc) bool) {
	s.coll.scans.Add(1)
	v := s.v
	for pi, base := 0, 0; base < v.length; pi, base = pi+1, base+pageSize {
		p := v.pages[pi]
		if p == nil {
			continue
		}
		end := v.length - base
		if end > pageSize {
			end = pageSize
		}
		for off := 0; off < end; off++ {
			if p.recs[off].deleted {
				continue
			}
			if !fn(p.recs[off].doc) {
				return
			}
		}
	}
}

// Docs returns the snapshot's live documents in insertion order. The
// returned documents are immutable shared state; callers must not modify
// them.
func (s *Snapshot) Docs() []*bson.Doc {
	out := make([]*bson.Doc, 0, s.v.count)
	s.Scan(func(d *bson.Doc) bool {
		out = append(out, d)
		return true
	})
	return out
}

// WriteData streams the snapshot in the persistent collection format (see
// persist.go): magic, document count, then each live document
// length-prefixed. Because the snapshot is immutable the entire stream —
// header count included — is consistent by construction, no matter how long
// the disk write takes or how many writes commit meanwhile; checkpoints use
// exactly this to stream collections without stalling the write path.
func (s *Snapshot) WriteData(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	countBuf := make([]byte, 8)
	binary.LittleEndian.PutUint64(countBuf, uint64(s.v.count))
	if _, err := bw.Write(countBuf); err != nil {
		return err
	}
	var err error
	s.Scan(func(d *bson.Doc) bool {
		_, err = bw.Write(bson.Marshal(d))
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
