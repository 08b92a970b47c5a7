package storage

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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
	Collection string
	IndexUsed  string // the driving index; empty for a collection scan
	// Intersected names the other indexes whose postings narrowed the driving
	// index's candidates before a document was fetched (see doc.go, "Plans").
	Intersected []string
	// KeysExamined is the number of index entries read, driving and
	// intersected indexes together (and the keys read of an index found too
	// long to intersect); DocsExamined the documents fetched and
	// checked against what the scans left undecided. Intersection trades the
	// second for the first, so the two are reported side by side.
	KeysExamined int
	DocsExamined int
	DocsReturned int
	// ClausesCovered counts the filter fields whose conditions the index scans
	// answered exactly, so that no document was checked against them again.
	ClausesCovered int
	SortInMemory   bool
	// SnapshotVersion is the collection version the scan pinned: all
	// documents the query returned belong to exactly this committed state.
	// 0 for cursors over pre-materialized slices, which have no version.
	SnapshotVersion int64
	// Isolation is the read isolation of the scan: IsolationSnapshot for
	// version-pinned scans, empty for pre-materialized results.
	Isolation string
}

// String renders the plan compactly: "IXSCAN a_1 ∩ b_1 on c keys=810
// examined=30 returned=30 covered=2 snapshot=7".
func (p Plan) String() string {
	var b strings.Builder
	b.Grow(128)
	if p.IndexUsed == "" {
		fmt.Fprintf(&b, "COLLSCAN on %s", p.Collection)
	} else {
		b.WriteString("IXSCAN ")
		b.WriteString(p.IndexUsed)
		for _, name := range p.Intersected {
			b.WriteString(" ∩ ")
			b.WriteString(name)
		}
		fmt.Fprintf(&b, " on %s keys=%d", p.Collection, p.KeysExamined)
	}
	fmt.Fprintf(&b, " examined=%d returned=%d", p.DocsExamined, p.DocsReturned)
	if p.ClausesCovered > 0 {
		fmt.Fprintf(&b, " covered=%d", p.ClausesCovered)
	}
	if p.SnapshotVersion > 0 {
		fmt.Fprintf(&b, " snapshot=%d", p.SnapshotVersion)
	}
	return b.String()
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

// access is what planEnv.plan decided for one filter: where the candidates
// come from and what is left to check on each.
type access struct {
	// index names the driving index; empty means a collection scan, and then
	// positions is meaningless.
	index string
	// positions are the candidates' record positions in the driving index's
	// scan order, less those the intersected indexes ruled out. When shared
	// is set the slice is a posting list of the tree itself: it must not be
	// written to, and a writer whose ops move index entries must copy it
	// before the first of them.
	positions []uint32
	shared    bool
	// intersected names the other indexes the candidates were filtered
	// through, in the order they were applied.
	intersected []string
	// keys is the number of index entries read: the driving index's postings,
	// those of every intersected index, and the keys walked of an index the
	// cost rule then turned down.
	keys int
	// covered counts the filter fields whose clauses the scans answered
	// exactly, and residual is the matcher without them (nil when the scans
	// answered the whole filter).
	covered  int
	residual *query.Matcher
}

// The cost rule of index intersection. Narrowing the candidates by one more
// index means zeroing the membership bits and walking every entry of its
// postings once to set one; not narrowing them means fetching each candidate
// document and evaluating the residual predicate on it. Measured on the 2-core
// sandbox: 0.7 ns an entry walked in position order, 1.4 ns scattered over
// four million records (BenchmarkIntersectEntry), against ~140 ns a candidate
// examined (query.Matcher.Matches over the candidates of
// BenchmarkExperiment3DenormalizedStandalone1GB: 1.10 s for 7.9 M, nearly all
// of it the cache misses of the first field lookups in a cold 4.4 KB
// document). The planner cannot know how many candidates a list will rule
// out — the only statistic it reads is the lists' lengths, which the trees
// hold already — so the bound is set where the walk still pays if it removes
// no more than a third to a half of them: 64 entries a candidate cost 45 to
// 90 ns, a candidate kept costs 140. It is a constant, not an option: nothing
// in the four benchmark workloads sits near it (their lists are 2 to 6
// entries a candidate).
const intersectMaxEntriesPerCandidate = 64

// intersectBudget applies the rule: the most index entries worth walking to
// narrow that many candidates, whose positions reach up to limit. Reading
// the lists comes out of the same budget, index.KeyCost entries a key: under
// a unique index a range is all keys, and they are what it costs. Two costs
// that do not grow with the entries come off it. Below intersectMinCandidates
// no second index is read at all: planning one is a constraint lookup and a
// descent, more than examining a handful of documents. And the bits for
// [0, limit] are zeroed before each walk, which over millions of records is
// more than a few candidates repay: zeroing intersectZeroedPerEntry positions
// costs what walking one entry does (BenchmarkIntersectEntry/zero: 1.3 ns
// a 64-byte line of 512 bits).
func intersectBudget(candidates int, limit uint32) int {
	if candidates < intersectMinCandidates {
		return -1
	}
	return intersectMaxEntriesPerCandidate*candidates - int(limit/intersectZeroedPerEntry)
}

const (
	intersectMinCandidates  = 8
	intersectZeroedPerEntry = 512
)

// planScratch is the planner's working memory, pooled so that a find
// allocates its candidate list and nothing else: the posting lists read from
// the trees (slice headers, not positions) and the membership bits of an
// intersection or a dedupe.
type planScratch struct {
	lists [][]uint32
	bits  []uint64
}

var planScratchPool = sync.Pool{New: func() any { return new(planScratch) }}

// planScratchKeep bounds what a scratch may hold on to when it goes back to
// the pool, in slice elements (some hundred KB); a range over a million keys
// hands its memory to the collector instead.
const planScratchKeep = 1 << 14

func (s *planScratch) release() {
	if cap(s.lists) > planScratchKeep || cap(s.bits) > planScratchKeep {
		return
	}
	clear(s.lists) // a pooled scratch must not keep retired tree nodes reachable
	planScratchPool.Put(s)
}

// members returns the zeroed membership bits for positions [0, limit].
func (s *planScratch) members(limit uint32) []uint64 {
	n := int(limit>>6) + 1
	if cap(s.bits) < n {
		s.bits = make([]uint64, n)
		return s.bits
	}
	s.bits = s.bits[:n]
	clear(s.bits)
	return s.bits
}

// secondary is one index, other than the driving one, whose leading field the
// filter constrains: lists[from:to] are its postings, entries long in all,
// and cost what intersecting them comes to — the entries, and index.KeyCost
// for each list read.
type secondary struct {
	name          string
	field         string
	exact         bool
	from, to      int
	entries, cost int
}

// plan chooses an access path for the matcher's filter and reads it: a
// collection scan, or the positions under the most selective usable index —
// chosen as it always was, so the candidates keep the order they had —
// narrowed by every other index that the cost rule admits. No document is
// fetched and no entry is visited one call at a time: the trees hand over
// their posting lists and the loops below run over plain slices.
func (e planEnv) plan(m *query.Matcher, opts FindOptions) (access, error) {
	acc := access{residual: m}
	if opts.Hint != "" {
		if e.indexes.byName(opts.Hint) == nil {
			return acc, &ErrUnknownIndex{Collection: e.coll, Hint: opts.Hint}
		}
	}
	filter := m.Filter()
	if filter == nil || filter.Len() == 0 {
		return acc, nil
	}
	constraints := query.FieldConstraints(filter)
	if len(constraints) == 0 {
		return acc, nil
	}
	var best indexChoice // best.ix is nil until a usable index turns up
	for _, ent := range e.indexes {
		name, ix := ent.name, ent.ix
		if opts.Hint != "" && name != opts.Hint {
			continue
		}
		prefix := ix.PrefixMatches(constraints)
		if prefix == 0 {
			// A hinted index that cannot narrow this filter is honoured by
			// scanning the collection.
			continue
		}
		leading := constraints[ix.Spec().Fields[0].Name]
		if leading.IsEmpty() && !ix.Multikey() {
			// No value satisfies the filter's conditions on this field and the
			// index holds one per document: an index scan that reads nothing.
			acc.index = name
			return acc, nil
		}
		choice := indexChoice{name: name, ix: ix, prefix: prefix, leading: leading, distinct: ix.DistinctKeys()}
		if best.ix == nil || choice.better(&best) {
			best = choice
		}
	}
	if best.ix == nil {
		return acc, nil
	}

	scratch := planScratchPool.Get().(*planScratch)
	defer scratch.release()
	var entries int
	var ok bool
	if scratch.lists, entries, ok = best.ix.Postings(best.leading, scratch.lists[:0], math.MaxInt); !ok {
		return acc, nil
	}
	acc.index, acc.keys = best.name, entries
	driving := len(scratch.lists)
	covered := make([]string, 0, 4)
	if oneKeyADocument(best.ix) && best.leading.Exact() {
		covered = append(covered, best.leading.Field)
	}

	// The other indexes worth a look, cheapest first: one per constrained
	// leading field that the driving scan has not answered. Their postings are
	// read — a descent and a walk over keys, not entries — so that the cost
	// rule has their lengths, and no further than the most it could admit: the
	// candidates only get fewer from here.
	others := make([]secondary, 0, 4)
	if budget := intersectBudget(entries, 0); opts.Hint == "" && budget >= 0 {
	nextIndex:
		for _, ent := range e.indexes {
			field := ent.ix.Spec().Fields[0].Name
			c := constraints[field]
			if c == nil || field == best.leading.Field || !oneKeyADocument(ent.ix) {
				continue
			}
			for _, o := range others {
				if o.field == field {
					continue nextIndex
				}
			}
			o := secondary{name: ent.name, field: field, exact: c.Exact(), from: len(scratch.lists)}
			if scratch.lists, o.entries, ok = ent.ix.Postings(c, scratch.lists, budget); !ok {
				// Unreadable, or too long to pay: the keys walked to learn
				// that were read all the same.
				acc.keys += len(scratch.lists) - o.from
				clear(scratch.lists[o.from:])
				scratch.lists = scratch.lists[:o.from]
				continue
			}
			o.to = len(scratch.lists)
			o.cost = o.entries + index.KeyCost*(o.to-o.from)
			at := len(others)
			for at > 0 && others[at-1].cost > o.cost {
				at--
			}
			others = slices.Insert(others, at, o)
		}
	}
	lists := scratch.lists

	// One document can sit under several of the scanned keys (an array value,
	// a repeated $in element); it is still one candidate.
	dedupe := best.ix.Multikey() || len(best.leading.Points) > 1
	// limit is the highest candidate position: what the membership bits of a
	// dedupe or an intersection have to cover.
	var limit uint32
	if dedupe || len(others) > 0 {
		for _, l := range lists[:driving] {
			limit = max(limit, slices.Max(l))
		}
	}
	if driving == 1 && !dedupe {
		acc.positions, acc.shared = lists[0], true
	} else {
		acc.positions = make([]uint32, 0, entries)
		for _, l := range lists[:driving] {
			acc.positions = append(acc.positions, l...)
		}
		if dedupe && len(acc.positions) > 0 {
			acc.positions = dedupePositions(acc.positions, scratch.members(limit))
		}
	}
	for i, o := range others {
		if o.cost > intersectBudget(len(acc.positions), limit) {
			// The lists only get longer and the candidates only fewer: the
			// first index the rule turns down ends it.
			for _, o := range others[i:] {
				acc.keys += o.to - o.from
			}
			break
		}
		if acc.shared {
			acc.positions, acc.shared = slices.Clone(acc.positions), false
		}
		acc.positions = intersectPositions(acc.positions, lists[o.from:o.to], scratch.members(limit), limit)
		if acc.intersected == nil {
			acc.intersected = make([]string, 0, len(others))
		}
		acc.intersected = append(acc.intersected, o.name)
		acc.keys += o.entries
		if o.exact {
			covered = append(covered, o.field)
		}
	}
	acc.covered = len(covered)
	acc.residual = m.Residual(covered)
	return acc, nil
}

// oneKeyADocument reports whether ix holds each document under exactly one
// key that orders as its value does: neither multikey nor hashed. Only such
// an index can be intersected, and only its scan can answer a clause exactly
// (see query.Constraint.Exact).
func oneKeyADocument(ix *index.Index) bool {
	return !ix.Multikey() && ix.Spec().Kind() != index.KindHashed
}

// dedupePositions drops repeated positions in place, keeping the first
// occurrence of each so the index order of the candidates survives. seen is
// zeroed and covers every position.
func dedupePositions(positions []uint32, seen []uint64) []uint32 {
	out := positions[:0]
	for _, pos := range positions {
		if word, bit := pos>>6, uint64(1)<<(pos&63); seen[word]&bit == 0 {
			seen[word] |= bit
			out = append(out, pos)
		}
	}
	return out
}

// intersectPositions keeps, in place and in order, the positions that occur
// in one of the posting lists. member is zeroed and covers [0, limit], which
// no position exceeds; list entries beyond it belong to no candidate.
func intersectPositions(positions []uint32, lists [][]uint32, member []uint64, limit uint32) []uint32 {
	for _, l := range lists {
		for _, pos := range l {
			if pos <= limit {
				member[pos>>6] |= 1 << (pos & 63)
			}
		}
	}
	out := positions[:0]
	for _, pos := range positions {
		if member[pos>>6]&(1<<(pos&63)) != 0 {
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
