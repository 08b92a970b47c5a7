// Package index implements the index engine of the document store: an
// in-memory B-tree keyed by composite document values, and the index types
// described in §2.1.2 of the thesis (default _id, single field, compound,
// multikey, and hashed indexes). The default _id index is the unique
// single-field index the storage engine creates with every collection.
package index

import (
	"slices"

	"docstore/internal/bson"
)

// The tree uses asymmetric degrees: a node splits at 2*degree-1 keys of its
// level's degree (there is no minimum fill: deletion is lazy, and a split at
// the right edge starts an empty node). Leaves are kept
// narrower than interior nodes because a copy-on-write era duplicates a
// leaf's whole item array on its first mutation — leaf width is the dominant
// per-era copy cost — while interior nodes alias their item arrays on a pure
// descent and duplicate only their child-pointer arrays, so width there buys
// a shallower tree almost for free.
const (
	btreeInternalDegree = 32
	btreeLeafDegree     = 8
)

// maxNodeItems returns the item capacity at which n must split.
func maxNodeItems(n *node) int {
	if n.leaf() {
		return 2*btreeLeafDegree - 1
	}
	return 2*btreeInternalDegree - 1
}

// Key is a composite index key: one entry per indexed field, compared
// lexicographically with the canonical value ordering.
type Key []any

// MaxSentinel is a key component that sorts after every canonical value.
// Range scans append it to an upper bound to cover all trailing components of
// a compound key sharing the bounded prefix.
type MaxSentinel struct{}

// CompareKeys orders two composite keys.
func CompareKeys(a, b Key) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		_, aMax := a[i].(MaxSentinel)
		_, bMax := b[i].(MaxSentinel)
		if aMax || bMax {
			switch {
			case aMax && bMax:
				continue
			case aMax:
				return 1
			default:
				return -1
			}
		}
		if c := bson.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// item is one key slot in a B-tree node: a composite key and the record
// positions of the documents that share it, unboxed and in entry order.
// posOwner marks the mutation stamp that last replaced the pos slice: when it
// equals the tree's current stamp the slice was allocated by the current
// (unpublished) batch and may be appended to or spliced in place; otherwise
// it may be shared with a frozen clone and must be copied before mutation.
// Keys are copied at insert and never mutated, so they need no ownership
// tracking.
type item struct {
	key      Key
	pos      []uint32
	posOwner int64
}

// posBytes is what one entry's position costs in the tree.
const posBytes = 4

// node is one B-tree node. owner marks the mutation stamp that created (or
// path-copied) it: when it equals the tree's current stamp the node is
// private to the unpublished batch and may be mutated in place; otherwise it
// may be reachable from a frozen clone and must be copied first. With a zero
// stamp (legacy in-place mode) ownership is never consulted.
//
// The items backing array has its own ownership stamp: a path-copied node
// shell initially aliases the source's array (concurrent reads of a shared
// array are safe — only the child pointers change on a pure descent), and
// ownItems duplicates it lazily before the first in-place item mutation of
// the era. Interior nodes on an insert path therefore copy ~one cache line
// of child pointers instead of their full item array.
type node struct {
	items    []item
	children []*node
	owner    int64
	// itemsOwner marks the stamp that allocated the items backing array; when
	// it trails owner the array is still shared with displaced shells.
	itemsOwner int64
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// shellBytes estimates the footprint of the node struct and its child
// pointer array — the part ownNode duplicates eagerly.
func (n *node) shellBytes() int64 {
	return int64(48 + 8*len(n.children))
}

// itemBytes estimates the footprint of the items backing array — the part
// ownItems duplicates lazily on the first item mutation of an era.
func (n *node) itemBytes() int64 {
	var b int64
	for i := range n.items {
		b += int64(32 + 16*len(n.items[i].key) + posBytes*len(n.items[i].pos))
	}
	return b
}

// estBytes is a deterministic estimate of the node's full memory footprint,
// used by the copy-on-write gauges. It counts pointer-level structure
// (headers, key and position slots, child pointers), not encoded document bytes,
// so it is cheap enough to compute on every path copy.
func (n *node) estBytes() int64 {
	return n.shellBytes() + n.itemBytes()
}

// BTree is an in-memory B-tree mapping composite keys to record positions.
//
// It is a persistent (path-copying) structure when driven with mutation
// stamps: SetStamp opens a copy-on-write era, and every mutation first copies
// the O(log n) nodes on the root-to-target path that are not already owned by
// the era, leaving nodes reachable from earlier Clone()s untouched. Clone
// returns an immutable point-in-time handle sharing the current nodes, so
// readers scan it without any locking while the writer keeps mutating.
//
// With a zero stamp the tree degrades to the original in-place structure.
// It is not safe for concurrent mutation; the owning collection serializes
// writers, and only frozen clones may be read concurrently with mutation.
type BTree struct {
	root    *node
	keys    int // number of distinct keys
	entries int // number of (key, position) pairs
	nodes   int // nodes reachable from root (live tree size)

	// stamp is the current copy-on-write era; 0 disables path copying.
	stamp int64
	// frozen marks an immutable Clone; mutations panic instead of silently
	// corrupting the versions sharing its nodes.
	frozen bool
	// onCopy, when set, observes every path copy: the estimated bytes of the
	// node that was duplicated (the displaced original is now retired and
	// reclaimable once no frozen clone can reach it).
	onCopy func(bytes int64)
}

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &node{}, nodes: 1}
}

// Len returns the number of (key, position) entries in the tree.
func (t *BTree) Len() int { return t.entries }

// DistinctKeys returns the number of distinct keys in the tree. The shard-key
// cardinality heuristics use this.
func (t *BTree) DistinctKeys() int { return t.keys }

// Nodes returns the number of nodes reachable from the current root.
func (t *BTree) Nodes() int { return t.nodes }

// EstBytes walks the tree and returns the estimated memory footprint of its
// nodes: what retiring the whole tree (DropIndex, collection Drop) releases.
// O(nodes); intended for the rare structural operations, not hot paths.
func (t *BTree) EstBytes() int64 {
	var walk func(n *node) int64
	walk = func(n *node) int64 {
		b := n.estBytes()
		for _, c := range n.children {
			b += walk(c)
		}
		return b
	}
	return walk(t.root)
}

// SetStamp opens a new copy-on-write era: mutations that follow copy any node
// (or position slice) not created under this stamp before changing it. Stamps must
// strictly increase across eras; the owning collection uses its write
// sequence. A zero stamp restores legacy in-place mutation.
func (t *BTree) SetStamp(s int64) { t.stamp = s }

// SetCopyHook registers the observer invoked with the estimated byte size of
// every copy-on-write duplication: a node shell (struct + child pointers)
// and its item array count as separate events, since the array is aliased on
// the path copy and only duplicated when items actually mutate. The
// displaced memory stays reachable from frozen clones; the hook is where the
// owning collection retires it for pin-tracked reclamation.
func (t *BTree) SetCopyHook(fn func(bytes int64)) { t.onCopy = fn }

// Clone returns an immutable point-in-time handle over the current nodes.
// It is O(1): the clone shares every node with the source, and the source's
// next mutation era (after SetStamp advances) path-copies what it changes
// instead of touching shared nodes. The clone panics on mutation.
func (t *BTree) Clone() *BTree {
	cp := new(BTree)
	t.CloneInto(cp)
	return cp
}

// CloneInto writes the immutable clone into caller-provided storage, letting
// the caller co-allocate the handle with its surroundings (see Index.Freeze).
func (t *BTree) CloneInto(dst *BTree) {
	*dst = BTree{root: t.root, keys: t.keys, entries: t.entries, nodes: t.nodes, frozen: true}
}

// ownNode returns a node safe to mutate under the current stamp, path-copying
// it when it may be shared with a frozen clone. The caller installs the
// result into its (already owned) parent. Only the struct and child pointer
// array are duplicated here; the items array stays aliased (itemsOwner marks
// it shared) until ownItems is asked to mutate it.
func (t *BTree) ownNode(n *node) *node {
	if t.stamp == 0 || n.owner == t.stamp {
		return n
	}
	cp := &node{owner: t.stamp, items: n.items, itemsOwner: n.itemsOwner}
	if len(n.children) > 0 {
		cp.children = append([]*node(nil), n.children...)
	}
	if t.onCopy != nil {
		t.onCopy(cp.shellBytes())
	}
	return cp
}

// ownItems makes an owned node's items backing array private to the current
// era, copying it when displaced shells (reachable from frozen clones) may
// still alias it. extra reserves append room so a following insertion does
// not immediately reallocate the fresh array.
func (t *BTree) ownItems(n *node, extra int) {
	if t.stamp == 0 || n.itemsOwner == t.stamp {
		return
	}
	if t.onCopy != nil {
		t.onCopy(n.itemBytes())
	}
	n.items = append(make([]item, 0, len(n.items)+extra), n.items...)
	n.itemsOwner = t.stamp
}

// ownPos makes the position slice of n.items[slot] safe to mutate in place.
// It first privatizes the containing items array (the slice header and
// posOwner are written through it), then copies the backing array when a
// frozen clone may still share it. extra reserves append room. Callers must
// re-take any item pointer after the call: privatizing relocates the array.
func (t *BTree) ownPos(n *node, slot, extra int) {
	if t.stamp == 0 {
		return
	}
	t.ownItems(n, 0)
	it := &n.items[slot]
	if it.posOwner == t.stamp {
		return
	}
	it.pos = append(make([]uint32, 0, len(it.pos)+extra), it.pos...)
	it.posOwner = t.stamp
}

func (t *BTree) mutable() {
	if t.frozen {
		panic("index: mutating a frozen BTree clone")
	}
}

// findInNode returns the position of key in the node and whether it is
// present.
func findInNode(n *node, key Key) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := (lo + hi) / 2
		if CompareKeys(n.items[mid].key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) && CompareKeys(n.items[lo].key, key) == 0 {
		return lo, true
	}
	return lo, false
}

// Insert adds a (key, position) entry. Multiple positions may share a key.
func (t *BTree) Insert(key Key, p uint32) {
	t.mutable()
	t.root = t.ownNode(t.root)
	if len(t.root.items) == maxNodeItems(t.root) {
		old := t.root
		t.root = &node{children: []*node{old}, owner: t.stamp, itemsOwner: t.stamp}
		t.nodes++
		t.splitChild(t.root, 0, key)
	}
	t.insertNonFull(t.root, key, p)
}

// splitChild splits the full i-th child of parent to make room for key. Both
// parent and the child are owned by the split — item arrays included, since
// both have items spliced or truncated in place, which only a private array
// tolerates.
func (t *BTree) splitChild(parent *node, i int, key Key) {
	child := t.ownNode(parent.children[i])
	parent.children[i] = child
	// The child is full at its level's capacity (always odd), so the middle
	// item promotes and both halves keep at least degree-1 items.
	mid := len(child.items) / 2
	if last := len(child.items) - 1; i == len(parent.children)-1 && CompareKeys(key, child.items[last].key) > 0 {
		// The key extends the tree's right edge, where keys that arrive in
		// order (ObjectIDs, counters, a backfill over surrogate keys) all
		// land: promote the last item instead, so the left node stays full
		// and the right one starts empty for the keys still to come. A middle
		// split would leave every node behind the edge half empty for good.
		// Nothing relies on a minimum fill (deletion is lazy), and an empty
		// node with one child routes every search to that child.
		mid = last
	}
	midItem := child.items[mid]

	right := &node{owner: t.stamp, itemsOwner: t.stamp}
	t.nodes++
	right.items = append(right.items, child.items[mid+1:]...)
	if !child.leaf() {
		right.children = append(right.children, child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	if t.stamp != 0 && child.itemsOwner != t.stamp {
		// The left half is all the split keeps of a shared array: copy just
		// it (with one slot of growth room) instead of privatizing the full
		// array only to truncate it.
		if t.onCopy != nil {
			t.onCopy(child.itemBytes())
		}
		child.items = append(make([]item, 0, mid+1), child.items[:mid]...)
		child.itemsOwner = t.stamp
	} else {
		// Drop the moved items' references from the owned left node so they
		// are not retained twice.
		for j := mid; j < len(child.items); j++ {
			child.items[j] = item{}
		}
		child.items = child.items[:mid]
	}

	t.ownItems(parent, 1)
	parent.items = append(parent.items, item{})
	copy(parent.items[i+1:], parent.items[i:])
	parent.items[i] = midItem

	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

// insertNonFull descends from an owned, non-full node, owning each child on
// the path before stepping into it.
func (t *BTree) insertNonFull(n *node, key Key, p uint32) {
	for {
		slot, found := findInNode(n, key)
		if found {
			t.appendPos(n, slot, p)
			return
		}
		if n.leaf() {
			t.ownItems(n, 1)
			n.items = append(n.items, item{})
			copy(n.items[slot+1:], n.items[slot:])
			n.items[slot] = item{key: append(Key(nil), key...), pos: []uint32{p}, posOwner: t.stamp}
			t.keys++
			t.entries++
			return
		}
		if len(n.children[slot].items) == maxNodeItems(n.children[slot]) {
			t.splitChild(n, slot, key)
			if c := CompareKeys(key, n.items[slot].key); c == 0 {
				t.appendPos(n, slot, p)
				return
			} else if c > 0 {
				slot++
			}
		}
		child := t.ownNode(n.children[slot])
		n.children[slot] = child
		n = child
	}
}

// appendPos adds p to the existing key slot of an owned node.
func (t *BTree) appendPos(n *node, slot int, p uint32) {
	t.ownPos(n, slot, 1)
	it := &n.items[slot]
	if len(it.pos) == 0 {
		// Re-populating a key slot left empty by a lazy delete.
		t.keys++
	}
	it.pos = append(it.pos, p)
	t.entries++
}

// Delete removes one (key, position) entry and reports whether it was found.
// The tree uses lazy structural deletion: emptied key slots are removed from
// their node but nodes are not rebalanced, which keeps deletion simple while
// preserving search correctness (the workloads of the thesis are read- and
// append-heavy). Under a copy-on-write stamp the root-to-target path is
// copied like any other mutation.
func (t *BTree) Delete(key Key, p uint32) bool {
	t.mutable()
	t.root = t.ownNode(t.root)
	n := t.root
	for {
		slot, found := findInNode(n, key)
		if found {
			i := slices.Index(n.items[slot].pos, p)
			if i < 0 {
				return false
			}
			t.ownPos(n, slot, 0)
			it := &n.items[slot]
			it.pos = append(it.pos[:i], it.pos[i+1:]...)
			t.entries--
			if len(it.pos) == 0 {
				t.keys--
				// Keep the key slot when the node is internal (it
				// separates children); empty leaf slots are removed.
				if n.leaf() {
					copy(n.items[slot:], n.items[slot+1:])
					n.items[len(n.items)-1] = item{}
					n.items = n.items[:len(n.items)-1]
				}
			}
			return true
		}
		if n.leaf() {
			return false
		}
		child := t.ownNode(n.children[slot])
		n.children[slot] = child
		n = child
	}
}

// Get returns the positions stored under an exact key, in entry order. The
// slice is the tree's own storage: callers must not modify it, and may keep
// it across later mutations only when the tree is a frozen clone.
func (t *BTree) Get(key Key) []uint32 {
	n := t.root
	for {
		slot, found := findInNode(n, key)
		if found {
			return n.items[slot].pos
		}
		if n.leaf() {
			return nil
		}
		n = n.children[slot]
	}
}

// Remap rewrites every entry's position through newPos (old position -> new
// position) without disturbing a single node reachable from a frozen clone:
// the whole tree is rebuilt, shape and keys shared, in one walk with no key
// comparisons. The owning collection calls it when a compaction renumbers
// its records. The mapping is monotone over live records, so entry order
// within a key is preserved. An entry whose record the compaction dropped
// (newPos < 0) means the index and the records disagreed before the call;
// that is a bug in the caller, so Remap panics rather than carry it forward.
func (t *BTree) Remap(newPos []int) {
	t.mutable()
	t.root = t.remapNode(t.root, newPos)
}

func (t *BTree) remapNode(n *node, newPos []int) *node {
	cp := &node{owner: t.stamp, itemsOwner: t.stamp, items: make([]item, len(n.items), cap(n.items))}
	total := 0
	for i := range n.items {
		total += len(n.items[i].pos)
	}
	// One backing array for all of the node's position lists; the capacity
	// of each sub-slice ends at its length, so a later append reallocates
	// instead of running into its neighbour.
	buf := make([]uint32, 0, total)
	for i := range n.items {
		src := &n.items[i]
		start := len(buf)
		for _, p := range src.pos {
			np := newPos[p]
			if np < 0 {
				panic("index: entry points at a record the compaction dropped")
			}
			buf = append(buf, uint32(np))
		}
		cp.items[i] = item{key: src.key, posOwner: t.stamp}
		if len(buf) > start {
			cp.items[i].pos = buf[start:len(buf):len(buf)]
		}
	}
	if len(n.children) > 0 {
		cp.children = make([]*node, len(n.children))
		for i, c := range n.children {
			cp.children[i] = t.remapNode(c, newPos)
		}
	}
	return cp
}

// Ascend walks every entry in key order, invoking fn for each (key,
// position) pair until fn returns false.
func (t *BTree) Ascend(fn func(key Key, p uint32) bool) {
	t.ascend(t.root, fn)
}

func (t *BTree) ascend(n *node, fn func(Key, uint32) bool) bool {
	for i, it := range n.items {
		if !n.leaf() {
			if !t.ascend(n.children[i], fn) {
				return false
			}
		}
		for _, p := range it.pos {
			if !fn(it.key, p) {
				return false
			}
		}
	}
	if !n.leaf() {
		return t.ascend(n.children[len(n.items)], fn)
	}
	return true
}

// Range describes a key interval for a range scan. A nil Min or Max leaves
// that side unbounded.
type Range struct {
	Min, Max                   Key
	MinInclusive, MaxIncl      bool
	unboundedMin, unboundedMax bool
}

// NewRange builds a range; pass nil for an unbounded side.
func NewRange(min Key, minIncl bool, max Key, maxIncl bool) Range {
	return Range{
		Min: min, Max: max,
		MinInclusive: minIncl, MaxIncl: maxIncl,
		unboundedMin: min == nil, unboundedMax: max == nil,
	}
}

func (r Range) belowMax(key Key) bool {
	if r.unboundedMax {
		return true
	}
	c := CompareKeys(key, r.Max)
	return c < 0 || (c == 0 && r.MaxIncl)
}

// KeyCost is what passing one key costs a Postings read, in entries of a
// posting list walked afterwards: a comparison against the range's end and a
// slice header appended are 21 to 26 ns a key over a million keys
// (BenchmarkPostingsKey), where an entry walked is 0.7 to 1.4 ns
// (storage.BenchmarkIntersectEntry). A reader that weighs a read against
// something else counts entries + KeyCost × keys.
const KeyCost = 16

// Postings appends to lists the position list of every key inside the range,
// in key order, and returns the grown slice with the number of positions in
// the lists it added. It compares keys and copies slice headers: no position
// is visited. The lists are the tree's own storage, as with Get. Once what it
// added costs more than budget — positions, and KeyCost for each list — the
// walk stops and the last result is false: a caller that would not walk that
// much anyway does not pay for reading the rest of a long range either.
func (t *BTree) Postings(r Range, lists [][]uint32, budget int) ([][]uint32, int, bool) {
	w := postingsWalk{r: r, held: len(lists), budget: budget}
	lists, total, _ := t.postings(t.root, &w, lists, 0)
	return lists, total, !w.overdrawn(lists, total)
}

// postingsWalk is what stays the same throughout one Postings read.
type postingsWalk struct {
	r      Range
	held   int // lists the caller had already
	budget int
}

func (w *postingsWalk) overdrawn(lists [][]uint32, total int) bool {
	return total+KeyCost*(len(lists)-w.held) > w.budget
}

// postings walks one subtree; its last result is false once a key past the
// range's maximum, or the budget, ended the walk.
func (t *BTree) postings(n *node, w *postingsWalk, lists [][]uint32, total int) ([][]uint32, int, bool) {
	// Seek: everything left of the first item >= Min — items and the subtrees
	// between them — is below the range.
	start, atMin := 0, false
	if !w.r.unboundedMin {
		start, atMin = findInNode(n, w.r.Min)
	}
	more := true
	for i := start; i < len(n.items); i++ {
		it := &n.items[i]
		if !n.leaf() {
			if lists, total, more = t.postings(n.children[i], w, lists, total); !more {
				return lists, total, false
			}
		}
		if !w.r.belowMax(it.key) {
			return lists, total, false
		}
		if i == start && atMin && !w.r.MinInclusive {
			continue // the one key equal to an exclusive minimum
		}
		if len(it.pos) > 0 { // an interior slot a lazy delete emptied holds none
			lists = append(lists, it.pos)
			if total += len(it.pos); w.overdrawn(lists, total) {
				return lists, total, false
			}
		}
	}
	if !n.leaf() {
		return t.postings(n.children[len(n.items)], w, lists, total)
	}
	return lists, total, true
}

// Keys returns every distinct key in order. Intended for tests and for
// chunk-split point calculation.
func (t *BTree) Keys() []Key {
	var out []Key
	var last Key
	t.Ascend(func(k Key, _ uint32) bool {
		if last == nil || CompareKeys(last, k) != 0 {
			out = append(out, k)
			last = k
		}
		return true
	})
	return out
}
