package storage

import (
	"fmt"
	"sort"

	"docstore/internal/bson"
	"docstore/internal/index"
)

// EnsureIndex creates a secondary index over the collection if one with the
// same specification does not already exist, and backfills it from the
// current documents. It returns the index either way; {_id: 1} is the _id_
// index every collection already has. Creation is journaled
// (before the backfill, under the same lock that orders writes) so recovery
// rebuilds the index and replayed writes see the same unique-key
// enforcement; a backfill failure replays identically, so the logged record
// is deterministic either way. The backfill runs under the write mutex but
// never blocks snapshot readers: collection scans and already-open cursors
// proceed against the published version while the tree builds.
func (c *Collection) EnsureIndex(spec index.Spec, unique bool) (*index.Index, error) {
	c.mu.Lock()
	name := spec.Name()
	if name == idIndexSpec.Name() {
		name = idIndexName
	}
	if existing := c.indexes.byName(name); existing != nil {
		c.mu.Unlock()
		return existing, nil
	}
	commit, err := c.logRecordLocked(func(j Journal) (CommitWaiter, error) { return j.LogEnsureIndex(spec.Doc(), unique) })
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	ix := index.New(name, spec, unique)
	c.adoptIndexLocked(ix)
	for i := 0; i < c.length; i++ {
		r := c.writerRecord(i)
		if r.doc == nil {
			continue
		}
		if err := ix.Insert(r.doc, i); err != nil {
			// The record is logged; publish the advanced watermark and
			// resolve the commit so the change-stream frontier sees its LSN
			// (a replayed backfill fails identically, so recovery stays
			// deterministic).
			c.publishLocked()
			c.mu.Unlock()
			_ = waitCommit(commit, false)
			return nil, fmt.Errorf("storage: building index %s: %w", name, err)
		}
	}
	c.indexes = append(c.indexes, indexEntry{name: name, ix: ix})
	user := c.indexes.user()
	sort.Slice(user, func(i, j int) bool { return user[i].name < user[j].name })
	c.indexesChanged = true
	c.publishLocked()
	c.mu.Unlock()
	return ix, waitCommit(commit, false)
}

// EnsureIndexDoc is EnsureIndex taking the document form of the key
// specification, e.g. {"ss_item_sk": 1}.
func (c *Collection) EnsureIndexDoc(spec *bson.Doc, unique bool) (*index.Index, error) {
	parsed, err := index.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return c.EnsureIndex(parsed, unique)
}

// DropIndex removes the named user-created index and reports whether it
// existed; _id_ cannot be dropped. The removal is journaled so recovery does
// not resurrect the index.
func (c *Collection) DropIndex(name string) bool {
	c.mu.Lock()
	pos := -1
	for i, e := range c.indexes.user() {
		if e.name == name {
			pos = i + 1 // past _id_
			break
		}
	}
	if pos < 0 {
		c.mu.Unlock()
		return false
	}
	commit, err := c.logRecordLocked(func(j Journal) (CommitWaiter, error) { return j.LogDropIndex(name) })
	if err != nil {
		c.mu.Unlock()
		return false
	}
	c.indexes = append(c.indexes[:pos:pos], c.indexes[pos+1:]...)
	c.indexesChanged = true
	c.publishLocked()
	c.mu.Unlock()
	_ = waitCommit(commit, false)
	return true
}

// Index returns the named index (_id_ included), or nil.
func (c *Collection) Index(name string) *index.Index {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.indexes.byName(name)
}

// Indexes returns the collection's user-created indexes sorted by name (the
// live set's own order).
func (c *Collection) Indexes() []*index.Index {
	c.mu.Lock()
	defer c.mu.Unlock()
	user := c.indexes.user()
	out := make([]*index.Index, 0, len(user))
	for _, e := range user {
		out = append(out, e.ix)
	}
	return out
}

// IndexNames returns the names of the collection's user-created indexes.
func (c *Collection) IndexNames() []string {
	ixs := c.Indexes()
	names := make([]string, len(ixs))
	for i, ix := range ixs {
		names[i] = ix.Name()
	}
	return names
}
