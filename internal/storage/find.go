package storage

import (
	"fmt"
	"slices"

	"docstore/internal/bson"
	"docstore/internal/index"
	"docstore/internal/query"
	"docstore/internal/trace"
)

// FindOptions modifies a Find call.
type FindOptions struct {
	Sort       query.Sort
	Projection *query.Projection
	Limit      int // 0 means no limit
	Skip       int
	// Hint forces the named index; empty lets the planner choose. Naming an
	// index that does not exist fails the query with ErrUnknownIndex rather
	// than silently falling back to a collection scan.
	Hint string
	// BatchSize is the number of documents a FindCursor pulls per batch:
	// 0 uses DefaultBatchSize, negative values disable batching so the whole
	// result is produced in one batch (the materializing behaviour Find
	// relies on). Slice-returning APIs ignore it.
	BatchSize int
	// AtVersion pins the query to the named committed collection version
	// instead of the current one — the engine's atClusterTime analogue. A
	// session issues its first query normally, reads Plan.SnapshotVersion
	// (keeping that cursor open anchors the version against retention), and
	// passes it here on follow-up queries: every result then describes one
	// committed state, no matter how many writes land in between. 0 means
	// the current version; naming a version the engine no longer tracks
	// fails with ErrVersionRetired.
	AtVersion int64
	// Trace is the parent span of the request this query belongs to; the
	// engine attaches a storage.plan child recording the snapshot pin and
	// chosen access path under it. Nil disables tracing for the query.
	Trace *trace.Span
}

// ErrUnknownIndex is returned when FindOptions.Hint names an index that does
// not exist on the collection. It surfaces verbatim through mongod, the
// query router and the wire protocol, so a bad hint is a query error at
// every layer instead of a silent collection scan.
type ErrUnknownIndex struct {
	Collection string
	Hint       string
}

func (e *ErrUnknownIndex) Error() string {
	return fmt.Sprintf("storage: hint %q: no index with that name on collection %q", e.Hint, e.Collection)
}

// IsolationSnapshot is the Plan.Isolation value of version-pinned scans: the
// result is a point-in-time view of one committed version. It is the only
// isolation level collection-backed cursors run at.
const IsolationSnapshot = "snapshot"

// Plan describes how a query was (or would be) executed; it is the
// explain() analogue.
type Plan struct {
	Collection   string
	IndexUsed    string // empty for a collection scan
	DocsExamined int
	DocsReturned int
	SortInMemory bool
	// SnapshotVersion is the collection version the scan pinned: all
	// documents the query returned belong to exactly this committed state.
	// 0 for cursors over pre-materialized slices, which have no version.
	SnapshotVersion int64
	// Isolation is the read isolation of the scan: IsolationSnapshot for
	// version-pinned scans, empty for pre-materialized results.
	Isolation string
}

// String renders the plan compactly.
func (p Plan) String() string {
	src := "COLLSCAN"
	if p.IndexUsed != "" {
		src = "IXSCAN " + p.IndexUsed
	}
	s := fmt.Sprintf("%s on %s examined=%d returned=%d", src, p.Collection, p.DocsExamined, p.DocsReturned)
	if p.SnapshotVersion > 0 {
		s += fmt.Sprintf(" snapshot=%d", p.SnapshotVersion)
	}
	return s
}

// Find returns the documents matching filter, honouring the options.
func (c *Collection) Find(filter *bson.Doc, opts FindOptions) ([]*bson.Doc, error) {
	docs, _, err := c.FindWithPlan(filter, opts)
	return docs, err
}

// FindAll returns every document matching the filter with default options.
func (c *Collection) FindAll(filter *bson.Doc) ([]*bson.Doc, error) {
	return c.Find(filter, FindOptions{})
}

// FindOne returns the first matching document or nil.
func (c *Collection) FindOne(filter *bson.Doc) (*bson.Doc, error) {
	docs, err := c.Find(filter, FindOptions{Limit: 1})
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, nil
	}
	return docs[0], nil
}

// CountDocs returns the number of documents matching the filter.
func (c *Collection) CountDocs(filter *bson.Doc) (int, error) {
	if filter == nil || filter.Len() == 0 {
		return c.Count(), nil
	}
	docs, err := c.Find(filter, FindOptions{})
	if err != nil {
		return 0, err
	}
	return len(docs), nil
}

// FindWithPlan is Find but also returns the execution plan, which the
// benchmark harness uses to verify index usage and document-examined counts.
// It is a thin wrapper over FindCursor with batching disabled, so the whole
// result materializes from one pinned snapshot.
func (c *Collection) FindWithPlan(filter *bson.Doc, opts FindOptions) ([]*bson.Doc, Plan, error) {
	opts.BatchSize = -1
	cur, err := c.FindCursor(filter, opts)
	if err != nil {
		return nil, Plan{Collection: c.name}, err
	}
	docs, err := cur.All()
	return docs, cur.Plan(), err
}

// planEnv is a query-planning environment: an index set whose entries are
// positions into the environment's own records. The writer plans against its
// own mutable trees (updates and deletes, under the write mutex, so their
// index-narrowed candidates agree with the mid-batch records they mutate);
// readers plan against a pinned version's frozen index set with no locking at
// all — the trees are immutable path-copied structures published with the
// version, so their positions name the pinned records by construction.
type planEnv struct {
	coll    string
	indexes indexSet
}

// plan chooses an access path for the filter: either nil (collection scan)
// or the ordered record positions produced by the most selective usable
// index.
func (e planEnv) plan(filter *bson.Doc, opts FindOptions) ([]int, string, error) {
	if opts.Hint != "" {
		if e.indexes.byName(opts.Hint) == nil {
			return nil, "", &ErrUnknownIndex{Collection: e.coll, Hint: opts.Hint}
		}
	}
	if filter == nil || filter.Len() == 0 {
		return nil, "", nil
	}
	constraints := query.FieldConstraints(filter)
	if len(constraints) == 0 && opts.Hint == "" {
		return nil, "", nil
	}
	var best *indexChoice
	for _, ent := range e.indexes {
		name, ix := ent.name, ent.ix
		if opts.Hint != "" && name != opts.Hint {
			continue
		}
		prefix := ix.PrefixMatches(constraints)
		if prefix == 0 {
			if opts.Hint == name {
				// The hinted index exists but cannot narrow this filter;
				// honour the hint by scanning the collection.
				return nil, "", nil
			}
			continue
		}
		leading := constraints[ix.Spec().Fields[0].Name]
		choice := &indexChoice{name: name, ix: ix, prefix: prefix, leading: leading, distinct: ix.DistinctKeys()}
		if best == nil || choice.better(best) {
			best = choice
		}
	}
	if best == nil {
		return nil, "", nil
	}
	ix := best.ix
	// A non-nil (possibly empty) slice signals that an index narrowed the
	// candidates; nil means a collection scan is required. The entries are
	// the candidates: each is a record position, taken as it comes.
	positions := make([]int, 0, 16)
	ok := ix.ScanRange(best.leading, func(pos int) bool {
		positions = append(positions, pos)
		return true
	})
	if !ok {
		return nil, "", nil
	}
	if ix.Multikey() || len(best.leading.Points) > 1 {
		// One document can sit under several of the scanned keys (an array
		// value, a repeated $in element); it is still one candidate.
		positions = dedupePositions(positions)
	}
	return positions, best.name, nil
}

// dedupePositions drops repeated positions in place, keeping the first
// occurrence of each so the index order of the candidates survives.
func dedupePositions(positions []int) []int {
	if len(positions) < 2 {
		return positions
	}
	seen := make([]uint64, slices.Max(positions)>>6+1)
	out := positions[:0]
	for _, pos := range positions {
		if word, bit := pos>>6, uint64(1)<<(pos&63); seen[word]&bit == 0 {
			seen[word] |= bit
			out = append(out, pos)
		}
	}
	return out
}

type indexChoice struct {
	name     string
	ix       *index.Index
	prefix   int
	leading  *query.Constraint
	distinct int
}

// better prefers longer prefixes, then point constraints over ranges, then
// higher-cardinality indexes (a point lookup on a high-cardinality index
// narrows the candidate set more), and finally the name for determinism.
func (a *indexChoice) better(b *indexChoice) bool {
	if a.prefix != b.prefix {
		return a.prefix > b.prefix
	}
	aPoint, bPoint := a.leading.IsPoint(), b.leading.IsPoint()
	if aPoint != bPoint {
		return aPoint
	}
	if a.distinct != b.distinct {
		return a.distinct > b.distinct
	}
	return a.name < b.name
}

// Distinct returns the sorted distinct values of a (possibly dotted) field
// across documents matching the filter.
func (c *Collection) Distinct(field string, filter *bson.Doc) ([]any, error) {
	docs, err := c.FindAll(filter)
	if err != nil {
		return nil, err
	}
	var out []any
	path := bson.NewPath(field)
	for _, d := range docs {
		for vs, i := path.Lookup(d), 0; i < vs.Len(); i++ {
			v := vs.At(i)
			found := false
			for _, existing := range out {
				if bson.Compare(existing, v) == 0 {
					found = true
					break
				}
			}
			if !found {
				out = append(out, v)
			}
		}
	}
	sortValues(out)
	return out, nil
}

func sortValues(vals []any) {
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && bson.Compare(vals[j], vals[j-1]) < 0; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
}
