package storage

import (
	"bufio"
	"encoding/binary"
	"io"
	"sync/atomic"

	"docstore/internal/bson"
)

// Snapshot is a pinned, immutable point-in-time view of a collection: the
// read-side handle of the MVCC engine. Pinning costs one atomic load and a
// few atomic adds, and no locks; holding a snapshot never blocks writers, and
// concurrent commits, compactions and drops are invisible to it. Everything
// reachable through a snapshot — the record set, the document contents, the
// counters, the journal watermark and the index definitions — describes the
// single committed version that was current when the snapshot was taken.
//
// What a snapshot reads stays alive because the snapshot references it: the
// pages, documents and index trees of its version are freed by Go's
// collector once no snapshot or newer version holds them. The pin counts
// only feed the engine gauges (LiveVersions, PinnedSnapshots — see
// EngineStats). Call Release (or Close) when done; Release is idempotent and
// safe to call concurrently. A snapshot that is never released corrupts
// nothing and its version is still freed once the snapshot is unreachable;
// the gauges merely keep counting it.
type Snapshot struct {
	coll     *Collection
	v        *version
	released atomic.Bool
}

// Snapshot pins the collection's current committed version.
func (c *Collection) Snapshot() *Snapshot {
	return c.pin(c.current.Load())
}

// pin returns a new snapshot of v, counting it in the engine gauges: the
// first pin of a version makes it live, the last Release makes it not.
func (c *Collection) pin(v *version) *Snapshot {
	if v.pins.Add(1) == 1 {
		c.pinnedVersions.Add(1)
	}
	c.pinnedSnapshots.Add(1)
	return &Snapshot{coll: c, v: v}
}

// Release unpins the snapshot, taking it out of the engine gauges. It is
// idempotent and safe for concurrent use; reads through a released snapshot
// still see its version, which stays alive while the snapshot is reachable.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	if s.v.pins.Add(-1) == 0 {
		s.coll.pinnedVersions.Add(-1)
	}
	s.coll.pinnedSnapshots.Add(-1)
}

// Close releases the snapshot; it exists so snapshots satisfy io.Closer.
func (s *Snapshot) Close() error {
	s.Release()
	return nil
}

// Collection returns the name of the collection the snapshot was taken from.
func (s *Snapshot) Collection() string { return s.coll.name }

// Version returns the snapshot's version number: a per-collection sequence
// that increments with every committed write batch. Plans and the
// storage.plan span surface it as snapshotVersion.
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
// returns false. It is entirely lock-free.
func (s *Snapshot) Scan(fn func(*bson.Doc) bool) {
	s.coll.scans.Add(1)
	v := s.v
	for pi, base := 0, 0; base < v.length; pi, base = pi+1, base+pageSize {
		p := v.pages[pi]
		end := min(v.length-base, pageSize)
		for off := 0; off < end; off++ {
			if d := p.recs[off].doc; d != nil && !fn(d) {
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
