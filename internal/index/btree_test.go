package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"docstore/internal/bson"
)

func TestBTreeInsertGet(t *testing.T) {
	tr := NewBTree()
	tr.Insert(Key{int64(5)}, 10)
	tr.Insert(Key{int64(5)}, 11)
	tr.Insert(Key{int64(7)}, 12)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.DistinctKeys() != 2 {
		t.Fatalf("DistinctKeys = %d, want 2", tr.DistinctKeys())
	}
	ids := tr.Get(Key{int64(5)})
	if len(ids) != 2 || ids[0] != 10 || ids[1] != 11 {
		t.Fatalf("Get(5) = %v", ids)
	}
	if got := tr.Get(Key{int64(99)}); got != nil {
		t.Fatalf("Get(99) = %v, want nil", got)
	}
}

func TestBTreeDelete(t *testing.T) {
	tr := NewBTree()
	tr.Insert(Key{int64(1)}, 10)
	tr.Insert(Key{int64(1)}, 11)
	tr.Insert(Key{int64(2)}, 12)
	if !tr.Delete(Key{int64(1)}, 10) {
		t.Fatalf("delete existing entry failed")
	}
	if tr.Delete(Key{int64(1)}, 99) {
		t.Fatalf("delete of missing position should fail")
	}
	if tr.Delete(Key{int64(42)}, 10) {
		t.Fatalf("delete of missing key should fail")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if got := tr.Get(Key{int64(1)}); len(got) != 1 || got[0] != 11 {
		t.Fatalf("Get(1) = %v", got)
	}
	// Deleting the last entry of a key reduces the distinct count, and
	// re-inserting restores it.
	tr.Delete(Key{int64(1)}, 11)
	if tr.DistinctKeys() != 1 {
		t.Fatalf("DistinctKeys = %d, want 1", tr.DistinctKeys())
	}
	tr.Insert(Key{int64(1)}, 13)
	if tr.DistinctKeys() != 2 {
		t.Fatalf("DistinctKeys after reinsert = %d, want 2", tr.DistinctKeys())
	}
}

// TestBTreeHeadDeleteUnderCopyOnWrite: deleting a posting list's head is a
// reslice of the era's own list. With a frozen clone holding the list, the
// first deletion of the era copies it (and the item array that holds it), so
// removing the head and then a middle posting, in either era, leaves every
// clone's Get and Postings as they were and the writer's list right.
func TestBTreeHeadDeleteUnderCopyOnWrite(t *testing.T) {
	key := Key{int64(5)}
	tr := NewBTree()
	tr.SetStamp(1)
	for k := int64(0); k < 40; k++ {
		tr.Insert(Key{k}, uint32(100+k)) // neighbours, so the key is not alone in its node
	}
	want := []uint32{100 + 5}
	for p := uint32(0); p < 10; p++ {
		tr.Insert(key, p)
		want = append(want, p)
	}
	postings := func(tr *BTree) []uint32 {
		lists, _, _ := tr.Postings(NewRange(key, true, key, true), nil, math.MaxInt)
		return slices.Concat(lists...)
	}
	type frozen struct {
		tr   *BTree
		want []uint32
	}
	var clones []frozen
	freeze := func(stamp int64) {
		clones = append(clones, frozen{tr.Clone(), slices.Clone(want)})
		tr.SetStamp(stamp)
	}
	del := func(p uint32) {
		t.Helper()
		if !tr.Delete(key, p) {
			t.Fatalf("Delete(%v, %d) found nothing", key, p)
		}
		want = slices.DeleteFunc(want, func(q uint32) bool { return q == p })
		for i, c := range clones {
			if got := c.tr.Get(key); !slices.Equal(got, c.want) {
				t.Fatalf("after deleting %d: clone %d Get = %v, want %v", p, i, got, c.want)
			}
			if got := postings(c.tr); !slices.Equal(got, c.want) {
				t.Fatalf("after deleting %d: clone %d Postings = %v, want %v", p, i, got, c.want)
			}
		}
		if got := tr.Get(key); !slices.Equal(got, want) {
			t.Fatalf("after deleting %d: writer Get = %v, want %v", p, got, want)
		}
	}

	freeze(2)
	del(105) // the head, of a list the clone shares
	del(4)   // a middle posting, of the list the head deletion copied
	del(0)   // the head again, of the era's own list
	freeze(3)
	del(1) // the head, of a list the second clone shares
	del(7)
	tr.Insert(key, 11) // an append after head deletions lands behind the rest
	want = append(want, 11)
	del(2)
	del(11)
	if tr.Len() != 39+len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), 39+len(want))
	}
}

func TestBTreeAscendOrdered(t *testing.T) {
	tr := NewBTree()
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(5000)
	for _, v := range perm {
		tr.Insert(Key{int64(v)}, uint32(v))
	}
	var got []int64
	tr.Ascend(func(k Key, _ uint32) bool {
		got = append(got, k[0].(int64))
		return true
	})
	if len(got) != 5000 {
		t.Fatalf("visited %d entries", len(got))
	}
	for i := range got {
		if got[i] != int64(i) {
			t.Fatalf("position %d has key %d", i, got[i])
		}
	}
	// Early termination.
	count := 0
	tr.Ascend(func(Key, uint32) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early termination visited %d", count)
	}
}

func TestBTreeLargeSplitAndDuplicates(t *testing.T) {
	tr := NewBTree()
	const n = 20000
	for i := 0; i < n; i++ {
		tr.Insert(Key{int64(i % 100)}, uint32(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.DistinctKeys() != 100 {
		t.Fatalf("DistinctKeys = %d", tr.DistinctKeys())
	}
	for k := 0; k < 100; k++ {
		if got := len(tr.Get(Key{int64(k)})); got != n/100 {
			t.Fatalf("key %d has %d entries", k, got)
		}
	}
}

// Keys that arrive in order split at the right edge, so the nodes left behind
// stay full instead of half empty; the emptier nodes such a split starts
// (down to no item and one child) must still route every search and scan.
func TestBTreeAscendingKeysFillNodes(t *testing.T) {
	tr := NewBTree()
	const n = 10000
	for i := 0; i < n; i++ {
		tr.Insert(Key{int64(i)}, uint32(i))
		// Every prefix of the load is a tree in some state of edge growth.
		if got := tr.Get(Key{int64(i)}); len(got) != 1 || got[0] != uint32(i) {
			t.Fatalf("Get(%d) right after its insert = %v", i, got)
		}
	}
	// A middle split leaves ~8 keys a leaf (1250+ nodes); full leaves hold
	// 14 or 15 of them.
	if maxNodes := n/(2*btreeLeafDegree-2) + n/100; tr.nodes > maxNodes {
		t.Fatalf("%d ascending keys took %d nodes, want at most %d", n, tr.nodes, maxNodes)
	}
	next := int64(0)
	tr.Ascend(func(k Key, p uint32) bool {
		if k[0].(int64) != next || p != uint32(next) {
			t.Fatalf("Ascend at %d = (%v, %d)", next, k, p)
		}
		next++
		return true
	})
	if next != n {
		t.Fatalf("Ascend visited %d entries, want %d", next, n)
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		lo, minIncl := int64(r.Intn(n)), r.Intn(2) == 0
		hi, maxIncl := lo+int64(r.Intn(40)), r.Intn(2) == 0
		var want []int64
		for k := lo; k <= hi && k < n; k++ {
			if (k > lo || minIncl) && (k < hi || maxIncl) {
				want = append(want, k)
			}
		}
		// Position i sits under key i, so the positions are the keys.
		var got []int64
		for _, p := range rangePositions(t, tr, NewRange(Key{lo}, minIncl, Key{hi}, maxIncl)) {
			got = append(got, int64(p))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("scan %d(%v)..%d(%v) = %v, want %v", lo, minIncl, hi, maxIncl, got, want)
		}
	}
	// Deleting and re-inserting behind the edge takes the middle-split path.
	for i := 0; i < n; i += 3 {
		if !tr.Delete(Key{int64(i)}, uint32(i)) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	for i := 0; i < n; i += 3 {
		tr.Insert(Key{int64(i)}, uint32(i))
	}
	if tr.Len() != n || tr.DistinctKeys() != n {
		t.Fatalf("after churn Len = %d, DistinctKeys = %d, want %d", tr.Len(), tr.DistinctKeys(), n)
	}
}

// rangePositions flattens the posting lists of a range, in scan order.
func rangePositions(t *testing.T, tr *BTree, r Range) []uint32 {
	t.Helper()
	held := [][]uint32{{7}} // what the caller already had stays in front
	lists, total, _ := tr.Postings(r, held, math.MaxInt)
	var out []uint32
	for _, l := range lists[1:] {
		if len(l) == 0 {
			t.Fatalf("Postings handed back an empty list")
		}
		out = append(out, l...)
	}
	if len(lists[0]) != 1 || lists[0][0] != 7 || len(out) != total {
		t.Fatalf("Postings: kept %v in front, %d positions in the lists, total %d", lists[0], len(out), total)
	}
	return out
}

func TestBTreePostings(t *testing.T) {
	tr := NewBTree()
	for i := 0; i < 1000; i++ {
		tr.Insert(Key{int64(i)}, uint32(i))
	}
	collect := func(r Range) []uint32 { return rangePositions(t, tr, r) }
	got := collect(NewRange(Key{int64(100)}, true, Key{int64(105)}, true))
	want := []int64{100, 101, 102, 103, 104, 105}
	if len(got) != len(want) {
		t.Fatalf("inclusive scan = %v", got)
	}
	got = collect(NewRange(Key{int64(100)}, false, Key{int64(105)}, false))
	if len(got) != 4 || got[0] != 101 || got[3] != 104 {
		t.Fatalf("exclusive scan = %v", got)
	}
	got = collect(NewRange(nil, true, Key{int64(3)}, true))
	if len(got) != 4 {
		t.Fatalf("unbounded min scan = %v", got)
	}
	got = collect(NewRange(Key{int64(996)}, true, nil, true))
	if len(got) != 4 {
		t.Fatalf("unbounded max scan = %v", got)
	}
	got = collect(NewRange(Key{int64(5000)}, true, nil, true))
	if len(got) != 0 {
		t.Fatalf("out-of-range scan = %v", got)
	}
	if got = collect(NewRange(nil, true, nil, true)); len(got) != 1000 || !slices.IsSorted(got) {
		t.Fatalf("unbounded scan = %d positions", len(got))
	}
	// Keys a lazy delete emptied — interior slots stay as separators — hold
	// no list; several positions under one key are one list.
	for i := 0; i < 1000; i += 2 {
		tr.Delete(Key{int64(i)}, uint32(i))
		tr.Insert(Key{int64(i + 1)}, uint32(i))
	}
	lists, total, _ := tr.Postings(NewRange(Key{int64(10)}, true, Key{int64(19)}, true), nil, math.MaxInt)
	if len(lists) != 5 || total != 10 {
		t.Fatalf("after moving the even keys: %d lists, %d positions, want 5 and 10", len(lists), total)
	}
	for i, l := range lists {
		if want := []uint32{uint32(11 + 2*i), uint32(10 + 2*i)}; !slices.Equal(l, want) {
			t.Fatalf("list %d = %v, want %v (entry order)", i, l, want)
		}
	}
	// A budget ends the walk at the key that overdraws it, however many keys
	// the range holds beyond: each costs its two positions and KeyCost.
	all, perKey := NewRange(nil, true, nil, true), 2+KeyCost
	for _, budget := range []int{-1, 0, perKey - 1, perKey, 4*perKey - 1, 4 * perKey, 500*perKey - 1} {
		lists, total, ok := tr.Postings(all, [][]uint32{{7}}, budget)
		if want := budget/perKey + 1; ok || len(lists) != 1+want || total != 2*want {
			t.Fatalf("budget %d: ok=%v, %d lists, %d positions; want the walk to stop after %d keys", budget, ok, len(lists)-1, total, want)
		}
	}
	if lists, total, ok := tr.Postings(all, nil, 500*perKey); !ok || len(lists) != 500 || total != 1000 {
		t.Fatalf("budget for all of it: ok=%v, %d lists, %d positions", ok, len(lists), total)
	}
}

func TestCompareKeys(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{Key{int64(1)}, Key{int64(2)}, -1},
		{Key{int64(2)}, Key{int64(1)}, 1},
		{Key{int64(1)}, Key{int64(1)}, 0},
		{Key{int64(1)}, Key{int64(1), "x"}, -1},
		{Key{int64(1), "x"}, Key{int64(1)}, 1},
		{Key{int64(1), "a"}, Key{int64(1), "b"}, -1},
		{Key{"a", int64(9)}, Key{"a", int64(3)}, 1},
		{Key{int64(1), MaxSentinel{}}, Key{int64(1), "zzz"}, 1},
		{Key{int64(1), "zzz"}, Key{int64(1), MaxSentinel{}}, -1},
		{Key{MaxSentinel{}}, Key{MaxSentinel{}}, 0},
	}
	for _, c := range cases {
		if got := CompareKeys(c.a, c.b); got != c.want {
			t.Errorf("CompareKeys(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBTreeKeysDistinctOrdered(t *testing.T) {
	tr := NewBTree()
	vals := []string{"pear", "apple", "mango", "apple", "fig"}
	for i, v := range vals {
		tr.Insert(Key{v}, uint32(i))
	}
	keys := tr.Keys()
	if len(keys) != 4 {
		t.Fatalf("Keys() = %v", keys)
	}
	want := []string{"apple", "fig", "mango", "pear"}
	for i, k := range keys {
		if k[0] != want[i] {
			t.Fatalf("Keys()[%d] = %v, want %v", i, k[0], want[i])
		}
	}
}

// TestBTreeEquivalentToSortedSliceProperty drives random inserts/deletes and
// checks the tree agrees with a naive reference implementation.
func TestBTreeEquivalentToSortedSliceProperty(t *testing.T) {
	type entry struct {
		k  int64
		id uint32
	}
	r := rand.New(rand.NewSource(77))
	tr := NewBTree()
	var ref []entry
	for op := 0; op < 20000; op++ {
		k := int64(r.Intn(200))
		if r.Intn(3) != 0 || len(ref) == 0 {
			id := uint32(op)
			tr.Insert(Key{k}, id)
			ref = append(ref, entry{k, id})
		} else {
			// Delete a random existing entry.
			i := r.Intn(len(ref))
			e := ref[i]
			if !tr.Delete(Key{e.k}, e.id) {
				t.Fatalf("delete of existing entry (%d,%d) failed", e.k, e.id)
			}
			ref = append(ref[:i], ref[i+1:]...)
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, ref = %d", tr.Len(), len(ref))
	}
	// Tree traversal must produce the reference entries sorted by key.
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].k < ref[j].k })
	var got []int64
	tr.Ascend(func(k Key, _ uint32) bool {
		got = append(got, k[0].(int64))
		return true
	})
	if len(got) != len(ref) {
		t.Fatalf("traversal length %d, want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i].k {
			t.Fatalf("traversal[%d] = %d, want %d", i, got[i], ref[i].k)
		}
	}
	// Range scans agree with the reference for random ranges.
	for trial := 0; trial < 200; trial++ {
		lo := int64(r.Intn(200))
		hi := lo + int64(r.Intn(50))
		wantCount := 0
		for _, e := range ref {
			if e.k >= lo && e.k <= hi {
				wantCount++
			}
		}
		_, gotCount, _ := tr.Postings(NewRange(Key{lo}, true, Key{hi}, true), nil, math.MaxInt)
		if gotCount != wantCount {
			t.Fatalf("range [%d,%d]: got %d, want %d", lo, hi, gotCount, wantCount)
		}
	}
}

func TestBTreeStringKeysQuick(t *testing.T) {
	// Inserting any set of strings and traversing must yield them sorted.
	f := func(vals []string) bool {
		tr := NewBTree()
		for i, v := range vals {
			tr.Insert(Key{v}, uint32(i))
		}
		var got []string
		tr.Ascend(func(k Key, _ uint32) bool {
			got = append(got, k[0].(string))
			return true
		})
		if len(got) != len(vals) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeMixedTypeKeysOrdered(t *testing.T) {
	tr := NewBTree()
	vals := []any{int64(3), "str", nil, true, 2.5, bson.NewObjectID()}
	for i, v := range vals {
		tr.Insert(Key{v}, uint32(i))
	}
	var types []bson.Type
	tr.Ascend(func(k Key, _ uint32) bool {
		types = append(types, bson.TypeOf(k[0]))
		return true
	})
	for i := 1; i < len(types); i++ {
		if types[i] < types[i-1] {
			t.Fatalf("cross-type order violated: %v", types)
		}
	}
}

// BenchmarkPostingsKey measures what a range read costs per key it passes
// (ns/op is per key): a comparison against the range's maximum and a slice
// header appended, over int64 and over string keys, one position under each.
func BenchmarkPostingsKey(b *testing.B) {
	const n, span = 1 << 20, 1 << 14
	for _, bc := range []struct {
		name string
		key  func(i int) Key
	}{
		{"int64", func(i int) Key { return Key{int64(i)} }},
		{"string", func(i int) Key { return Key{fmt.Sprintf("1998-%09d", i)} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr := NewBTree()
			for i := 0; i < n; i++ {
				tr.Insert(bc.key(i), uint32(i))
			}
			lists := make([][]uint32, 0, span)
			b.ResetTimer()
			for i := 0; i < b.N; i += span {
				from := i % (n - span)
				lists, _, _ = tr.Postings(NewRange(bc.key(from), true, bc.key(from+span-1), true), lists[:0], math.MaxInt)
			}
		})
	}
}
