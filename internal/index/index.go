package index

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"

	"docstore/internal/bson"
	"docstore/internal/query"
)

// Kind distinguishes the index types of §2.1.2.
type Kind int

// Index kinds.
const (
	KindSingle Kind = iota
	KindCompound
	KindHashed
)

// Field is one component of an index key specification.
type Field struct {
	Name   string
	Desc   bool
	Hashed bool
}

// Spec is an index key specification: an ordered list of fields, e.g.
// {ItemPrice: 1, ItemQuantity: 1} from the thesis' compound-index example.
type Spec struct {
	Fields []Field
}

// ParseSpec converts an index specification document into a Spec. Values of
// 1/-1 select ascending/descending order and "hashed" selects a hashed index
// (only valid as the sole field).
func ParseSpec(doc *bson.Doc) (Spec, error) {
	var s Spec
	if doc == nil || doc.Len() == 0 {
		return s, fmt.Errorf("index: empty key specification")
	}
	for _, f := range doc.Fields() {
		switch v := bson.Normalize(f.Value).(type) {
		case int64:
			if v != 1 && v != -1 {
				return s, fmt.Errorf("index: direction for %q must be 1 or -1", f.Key)
			}
			s.Fields = append(s.Fields, Field{Name: f.Key, Desc: v == -1})
		case float64:
			if v != 1 && v != -1 {
				return s, fmt.Errorf("index: direction for %q must be 1 or -1", f.Key)
			}
			s.Fields = append(s.Fields, Field{Name: f.Key, Desc: v == -1})
		case string:
			if v != "hashed" {
				return s, fmt.Errorf("index: unsupported index type %q for %q", v, f.Key)
			}
			s.Fields = append(s.Fields, Field{Name: f.Key, Hashed: true})
		default:
			return s, fmt.Errorf("index: invalid specification value %v for %q", f.Value, f.Key)
		}
	}
	if s.hashed() && len(s.Fields) > 1 {
		return s, fmt.Errorf("index: hashed indexes must have exactly one field")
	}
	return s, nil
}

// MustParseSpec is ParseSpec but panics on error.
func MustParseSpec(doc *bson.Doc) Spec {
	s, err := ParseSpec(doc)
	if err != nil {
		panic(err)
	}
	return s
}

func (s Spec) hashed() bool { return len(s.Fields) > 0 && s.Fields[0].Hashed }

// Kind reports the index kind implied by the specification.
func (s Spec) Kind() Kind {
	switch {
	case s.hashed():
		return KindHashed
	case len(s.Fields) > 1:
		return KindCompound
	default:
		return KindSingle
	}
}

// Name derives the conventional index name ("field_1_other_-1").
func (s Spec) Name() string {
	parts := make([]string, 0, len(s.Fields))
	for _, f := range s.Fields {
		switch {
		case f.Hashed:
			parts = append(parts, f.Name+"_hashed")
		case f.Desc:
			parts = append(parts, f.Name+"_-1")
		default:
			parts = append(parts, f.Name+"_1")
		}
	}
	return strings.Join(parts, "_")
}

// FieldNames returns the indexed field paths in order.
func (s Spec) FieldNames() []string {
	out := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		out[i] = f.Name
	}
	return out
}

// Doc renders the specification back into its document form.
func (s Spec) Doc() *bson.Doc {
	d := bson.NewDoc(len(s.Fields))
	for _, f := range s.Fields {
		switch {
		case f.Hashed:
			d.Set(f.Name, "hashed")
		case f.Desc:
			d.Set(f.Name, int64(-1))
		default:
			d.Set(f.Name, int64(1))
		}
	}
	return d
}

// Index is a secondary index over a collection: a B-tree keyed by the values
// of the specification fields, mapping to record positions — where the
// owning collection stores each document, the way a real store's index points
// at a record id. Positions are plain ints at this API and 4 bytes in the
// tree.
type Index struct {
	name     string
	spec     Spec
	paths    []*bson.Path // spec.Fields' names, compiled; shared with frozen handles
	unique   bool
	tree     *BTree
	multikey bool
	size     int // rough in-memory size in bytes, for working-set accounting
}

// New creates an empty index with the given specification.
func New(name string, spec Spec, unique bool) *Index {
	if name == "" {
		name = spec.Name()
	}
	paths := make([]*bson.Path, len(spec.Fields))
	for i, f := range spec.Fields {
		paths[i] = bson.NewPath(f.Name)
	}
	return &Index{name: name, spec: spec, paths: paths, unique: unique, tree: NewBTree()}
}

// MayChange reports whether an update that reported w may have changed a
// document's keys in ix: whether it wrote a top-level field one of the key
// paths starts at. One that did not leaves every key as it was, so the index
// need not be consulted.
func (ix *Index) MayChange(w *query.Written) bool {
	if w.All {
		return true
	}
	for _, p := range ix.paths {
		if slices.Contains(w.Fields, p.Top()) {
			return true
		}
	}
	return false
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Spec returns the key specification.
func (ix *Index) Spec() Spec { return ix.spec }

// Unique reports whether the index enforces key uniqueness.
func (ix *Index) Unique() bool { return ix.unique }

// Multikey reports whether any indexed document had an array value for an
// indexed field.
func (ix *Index) Multikey() bool { return ix.multikey }

// Len returns the number of entries in the index.
func (ix *Index) Len() int { return ix.tree.Len() }

// DistinctKeys returns the number of distinct keys (the shard-key cardinality
// measure of §2.1.3.3).
func (ix *Index) DistinctKeys() int { return ix.tree.DistinctKeys() }

// SizeBytes returns an estimate of the index's in-memory size, used by the
// working-set calculations of §2.1.3.2.
func (ix *Index) SizeBytes() int { return ix.size }

// TreeBytes returns the estimated memory footprint of the index's tree nodes
// (O(nodes) walk).
func (ix *Index) TreeBytes() int64 { return ix.tree.EstBytes() }

// SetStamp opens a new copy-on-write era on the backing tree: mutations that
// follow path-copy shared nodes instead of changing them in place, so every
// Freeze handle taken before the stamp advanced stays immutable. See
// BTree.SetStamp.
func (ix *Index) SetStamp(s int64) { ix.tree.SetStamp(s) }

// SetCopyHook registers the observer for tree-node path copies; see
// BTree.SetCopyHook.
func (ix *Index) SetCopyHook(fn func(bytes int64)) { ix.tree.SetCopyHook(fn) }

// Freeze returns an immutable point-in-time handle of the index: an O(1)
// shallow copy whose tree clone shares the current nodes. Provided the owner
// advances the mutation stamp before the next mutating batch (the collection
// does so at publish), readers may Lookup/Postings/PrefixMatches the frozen
// handle with no locking while the writer keeps mutating the original. The
// handle and its tree clone land in one allocation — every publish freezes
// every index, so the publish path's allocation count matters.
func (ix *Index) Freeze() *Index {
	f := &struct {
		ix   Index
		tree BTree
	}{ix: *ix}
	ix.tree.CloneInto(&f.tree)
	f.ix.tree = &f.tree
	return &f.ix
}

// hashValue maps an arbitrary value to its hashed index key.
func hashValue(v any) int64 {
	h := fnv.New64a()
	d := bson.NewDoc(1)
	d.Set("v", v)
	h.Write(bson.Marshal(d))
	return int64(h.Sum64())
}

// HashValue exposes the hash used by hashed indexes; the hashed sharding
// partitioner uses the same function so that routing and indexing agree.
func HashValue(v any) int64 { return hashValue(v) }

// keysForDoc extracts the index keys for a document. An array under the
// leading field produces one key per element (multikey), in a compound index
// as in a single-field one: the leading component is what a scan reads, and a
// filter matches an array by its elements. The other components of a compound
// key are the first reachable value of their field.
func (ix *Index) keysForDoc(d *bson.Doc) []Key {
	vals := ix.paths[0].Lookup(d)
	switch vals.Len() {
	case 0:
		vals = bson.OneValue(nil)
	case 1:
		if arr, ok := vals.At(0).([]any); ok && len(arr) > 0 {
			ix.multikey = true
			vals = bson.ManyValues(arr)
		} else if ok {
			vals = bson.OneValue(nil)
		}
	default:
		ix.multikey = true
	}
	keys := make([]Key, vals.Len())
	for i := range keys {
		keys[i] = make(Key, len(ix.paths))
		if keys[i][0] = vals.At(i); ix.spec.Fields[0].Hashed {
			keys[i][0] = hashValue(keys[i][0])
		}
	}
	for j, p := range ix.paths[1:] {
		rest := p.Lookup(d)
		if rest.Len() > 1 {
			ix.multikey = true
		}
		if rest.Len() > 0 {
			for _, key := range keys {
				key[j+1] = rest.At(0)
			}
		}
	}
	return keys
}

// ErrDuplicateKey is returned when inserting a document whose key already
// exists in a unique index.
type ErrDuplicateKey struct {
	Index string
	Key   Key
}

func (e *ErrDuplicateKey) Error() string {
	return fmt.Sprintf("index %s: duplicate key %v", e.Index, e.Key)
}

// entryPos narrows a record position to its stored form, or reports that an
// entry cannot hold it.
func (ix *Index) entryPos(pos int) (uint32, error) {
	if pos < 0 || uint64(pos) > math.MaxUint32 {
		return 0, fmt.Errorf("index %s: record position %d outside [0, %d]", ix.name, pos, uint32(math.MaxUint32))
	}
	return uint32(pos), nil
}

// Insert adds the document stored at record position pos to the index.
func (ix *Index) Insert(d *bson.Doc, pos int) error {
	p, err := ix.entryPos(pos)
	if err != nil {
		return err
	}
	return ix.insertKeys(ix.keysForDoc(d), p)
}

func (ix *Index) insertKeys(keys []Key, p uint32) error {
	if ix.unique {
		for _, k := range keys {
			if len(ix.tree.Get(k)) > 0 {
				return &ErrDuplicateKey{Index: ix.name, Key: k}
			}
		}
	}
	for _, k := range keys {
		ix.tree.Insert(k, p)
		ix.size += keySize(k) + posBytes
	}
	return nil
}

// Remove deletes the entries of the document stored at pos from the index.
func (ix *Index) Remove(d *bson.Doc, pos int) {
	p, err := ix.entryPos(pos)
	if err != nil {
		return // Insert never admitted it, so there is nothing to remove
	}
	ix.removeKeys(ix.keysForDoc(d), p)
}

func (ix *Index) removeKeys(keys []Key, p uint32) {
	for _, k := range keys {
		if ix.tree.Delete(k, p) {
			ix.size -= keySize(k) + posBytes
			if ix.size < 0 {
				ix.size = 0
			}
		}
	}
}

// Replace maintains the index across an update of the document stored at
// pos: the entries under old's keys move to updated's keys. When the update
// left the indexed fields alone the tree is not touched at all — no descent,
// no path copy — which is the common case for every index but the one on
// the field an update writes. That case is found before any key is built,
// and costs no allocation: the values at each key path are compared in the
// two documents, and an update shares every value it did not write with the
// document it replaced, so the comparison is mostly a pointer check. When a
// unique index refuses the new keys the old entries are put back, so a
// failed Replace leaves the index as it found it.
func (ix *Index) Replace(old, updated *bson.Doc, pos int) error {
	p, err := ix.entryPos(pos)
	if err != nil {
		return err
	}
	if ix.sameValues(old, updated) {
		return nil
	}
	from, to := ix.keysForDoc(old), ix.keysForDoc(updated)
	if sameKeys(from, to) {
		return nil
	}
	ix.removeKeys(from, p)
	if err = ix.insertKeys(to, p); err != nil {
		// Cannot fail: these keys held this very entry a moment ago.
		_ = ix.insertKeys(from, p)
	}
	return err
}

// Remap renumbers every entry after the owning collection compacted its
// records: newPos maps each old position to the record's new one (-1 for a
// dropped tombstone, which no entry may reference). The writer's tree is
// rebuilt from fresh nodes; handles frozen before the call keep the old
// nodes, and with them the old numbering their version's pages still use.
func (ix *Index) Remap(newPos []int) { ix.tree.Remap(newPos) }

// sameValues reports whether a and b hold the same values at every key
// path, and so have the same keys. keysForDoc reads a document only through
// these lookups, and values that compare equal make equal keys, except under
// a hash: 1 and 1.0 compare equal and hash apart. A hashed index's values
// must be identical instead; where they are not, the keys are compared.
func (ix *Index) sameValues(a, b *bson.Doc) bool {
	for i, p := range ix.paths {
		va, vb := p.Lookup(a), p.Lookup(b)
		if va.Len() != vb.Len() {
			return false
		}
		for k := 0; k < va.Len(); k++ {
			x, y := va.At(k), vb.At(k)
			if ix.spec.Fields[i].Hashed {
				if !identical(x, y) {
					return false
				}
			} else if bson.Compare(x, y) != 0 {
				return false
			}
		}
	}
	return true
}

// identical reports whether x and y are one value: the same scalar of the
// same type, or the same document or array, not merely equal ones.
func identical(x, y any) bool {
	switch tx := x.(type) {
	case *bson.Doc:
		ty, ok := y.(*bson.Doc)
		return ok && tx == ty
	case []any:
		ty, ok := y.([]any)
		return ok && len(tx) == len(ty) && (len(tx) == 0 || &tx[0] == &ty[0])
	default:
		return x == y
	}
}

func sameKeys(a, b []Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if CompareKeys(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// keySize is a key's share of the index's size estimate: each value's
// encoding, plus two bytes.
func keySize(k Key) int {
	size := 0
	for _, v := range k {
		size += bson.ValueSize(v) + 2
	}
	return size
}

// Lookup returns the record positions of documents whose indexed value
// equals v (for single-field and hashed indexes) in index order.
func (ix *Index) Lookup(v any) []int {
	if ix.spec.hashed() {
		v = hashValue(v)
	}
	return ix.LookupKey(Key{bson.Normalize(v)})
}

// LookupKey returns the record positions for an exact composite key.
func (ix *Index) LookupKey(k Key) []int {
	ps := ix.tree.Get(k)
	if len(ps) == 0 {
		return nil
	}
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = int(p)
	}
	return out
}

// How an index reads a constraint on its leading field.
const (
	readNot    = iota // it cannot
	readEmpty         // as no key at all
	readPoints        // key by key
	readRange         // between two keys
)

// reads says how ix serves c. A constraint that admits no single value
// (IsEmpty) is read as nothing, and a point set as given — but not by a
// multikey index when an array could satisfy what no single value can: two
// contradictory conditions, or several point conditions each through a
// different element (Constraint.Intersected). A hashed index has no order to
// read a range by.
func (ix *Index) reads(c *query.Constraint) int {
	switch {
	case c == nil:
		return readNot
	case c.IsEmpty() && !ix.multikey:
		return readEmpty
	case c.IsPoint() && !(ix.multikey && c.Intersected()):
		return readPoints
	case c.IsRange() && !ix.spec.hashed():
		return readRange
	}
	return readNot
}

// Postings reads the index for a constraint on its leading field without
// visiting an entry: it appends to lists the posting list — the record
// positions under one key, the tree's own slice, which the caller must not
// write to — of every key the constraint admits, in the order a scan meets
// them (the constraint's points in the order given, a range in key order),
// and returns the grown slice with the number of entries in the lists it
// added. That total is what a scan of them would cost; the caller may well
// decide against walking them, and says beforehand how much reading is worth
// to it at most: budget, in entries, a key counting as KeyCost of them. The
// read stops at the key that overdraws it.
//
// It returns false, and lists as given, when the index cannot serve the
// constraint (see reads); false with the lists read so far when the budget
// ran out.
//
// What the lists hold is a superset of the matching documents' positions,
// and exactly them where Constraint.Exact holds and the index is neither
// multikey nor hashed. A multikey index reads only one bound of a two-sided
// range: an array can meet each bound with a different element.
func (ix *Index) Postings(c *query.Constraint, lists [][]uint32, budget int) ([][]uint32, int, bool) {
	total, within := 0, true
	switch ix.reads(c) {
	case readNot:
		return lists, 0, false
	case readPoints:
		for _, p := range c.Points {
			if ix.spec.hashed() {
				p = hashValue(p)
			}
			var n int
			if len(ix.paths) > 1 {
				// [ {p}, {p, MAX} ] covers every compound key whose leading
				// component equals p.
				before := len(lists)
				lists, n, within = ix.tree.Postings(NewRange(Key{p}, true, Key{p, MaxSentinel{}}, true), lists, budget)
				budget -= KeyCost * (len(lists) - before)
			} else if ps := ix.tree.Get(Key{p}); len(ps) > 0 {
				lists, n = append(lists, ps), len(ps)
				budget -= KeyCost
			}
			total += n
			if budget -= n; !within || budget < 0 {
				return lists, total, false
			}
		}
	case readRange:
		// Over compound keys {v, ...}: {v} sorts before all of them and
		// {v, MAX} after, so an inclusive bound takes the near one and an
		// exclusive bound the far one.
		var min, max Key
		compound := len(ix.paths) > 1
		if c.HasMin {
			min = Key{c.Min}
			if compound && !c.MinInclusive {
				min = Key{c.Min, MaxSentinel{}}
			}
		}
		if c.HasMax && !(ix.multikey && c.HasMin) {
			max = Key{c.Max}
			if compound && c.MaxInclusive {
				max = Key{c.Max, MaxSentinel{}}
			}
		}
		lists, total, within = ix.tree.Postings(NewRange(min, c.MinInclusive, max, c.MaxInclusive), lists, budget)
	}
	return lists, total, within
}

// CoversSort reports whether the index natively provides the requested sort
// order (ascending prefix match on the specification).
func (ix *Index) CoversSort(s query.Sort) bool {
	if len(s) == 0 || len(s) > len(ix.spec.Fields) || ix.spec.hashed() {
		return false
	}
	for i, f := range s {
		if ix.spec.Fields[i].Name != f.Field || ix.spec.Fields[i].Desc != f.Desc {
			return false
		}
	}
	return true
}

// PrefixMatches reports how many leading fields of the index are constrained
// by the filter (the "index prefix" rule of §2.1.2).
func (ix *Index) PrefixMatches(constraints map[string]*query.Constraint) int {
	n := 0
	for _, f := range ix.spec.Fields {
		if ix.reads(constraints[f.Name]) == readNot {
			break
		}
		n++
	}
	return n
}
