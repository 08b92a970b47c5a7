package storage

import (
	"bytes"
	"sync"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
)

// TestSharedSubdocumentIsolation: a Figure 4.7 multi-update leaves every fact
// document it matched holding one embedded document — the same pointer, not
// copies of it — and a write through a nested path of one fact document
// copies the path it writes: the other fact document, and a snapshot pinned
// before the write, keep their encodings byte for byte.
func TestSharedSubdocumentIsolation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		update *bson.Doc
	}{
		{"$set", bson.D("$set", bson.D("fk.inner.a", 5))},
		{"$inc", bson.D("$inc", bson.D("fk.inner.a", 1))},
		{"$unset", bson.D("$unset", bson.D("fk.name", ""))},
		{"$push", bson.D("$push", bson.D("fk.inner.arr", 3))},
		{"$rename", bson.D("$rename", bson.D("fk.inner.a", "fk.b"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollection("facts")
			if _, err := c.EnsureIndexDoc(bson.D("fk.inner.a", 1), false); err != nil {
				t.Fatal(err)
			}
			if _, err := c.InsertMany([]*bson.Doc{
				bson.D(bson.IDKey, 1, "fk", 7, "n", 1),
				bson.D(bson.IDKey, 2, "fk", 7, "n", 2),
			}); err != nil {
				t.Fatal(err)
			}
			dim := bson.D("name", "store", "inner", bson.D("a", 1, "arr", bson.A(1, 2)))
			res, err := c.UpdateMany(bson.D("fk", 7), bson.D("$set", bson.D("fk", dim)))
			if err != nil || res.Modified != 2 {
				t.Fatalf("embed: %+v, %v", res, err)
			}
			one, two := c.FindID(1), c.FindID(2)
			e1, _ := one.Get("fk")
			e2, _ := two.Get("fk")
			if e1.(*bson.Doc) != e2.(*bson.Doc) {
				t.Fatalf("the two fact documents hold different embedded documents")
			}
			if e1.(*bson.Doc) == dim {
				t.Fatalf("the stored documents hold the caller's update argument")
			}

			snap := c.Snapshot()
			defer snap.Release()
			oneBefore, twoBefore := bson.Marshal(one), bson.Marshal(two)
			if res, err := c.UpdateOne(bson.D(bson.IDKey, 1), tc.update); err != nil || res.Modified != 1 {
				t.Fatalf("nested write: %+v, %v", res, err)
			}
			if bytes.Equal(bson.Marshal(c.FindID(1)), oneBefore) {
				t.Fatalf("the written document did not change: %v", c.FindID(1))
			}
			for _, kept := range []struct {
				name string
				doc  *bson.Doc
				was  []byte
			}{
				{"the other fact document", c.FindID(2), twoBefore},
				{"the pinned snapshot's written document", snap.FindID(1), oneBefore},
				{"the pinned snapshot's other document", snap.FindID(2), twoBefore},
				{"the document read before the write", one, oneBefore},
			} {
				if got := bson.Marshal(kept.doc); !bytes.Equal(got, kept.was) {
					t.Fatalf("%s changed: %v", kept.name, kept.doc)
				}
			}
			// The index moved the written document's entry where the write
			// changed fk.inner.a, and kept the other one's.
			for _, a := range []int{1, 5, 2} {
				filter := bson.D("fk.inner.a", a)
				got, plan, err := c.FindWithPlan(filter, FindOptions{})
				if err != nil || plan.IndexUsed != "fk.inner.a_1" {
					t.Fatalf("find %v: plan %s, %v", filter, plan, err)
				}
				m := query.MustCompile(filter)
				want := 0
				for _, id := range []int{1, 2} {
					if m.Matches(c.FindID(id)) {
						want++
					}
				}
				if len(got) != want {
					t.Fatalf("find %v through the index: %d documents, a scan matches %d", filter, len(got), want)
				}
			}
		})
	}
}

// TestUpdateArgumentsNotRetained: a write keeps none of its caller's
// documents. After each update below, mutating the document the caller passed
// in leaves the stored document, and a snapshot pinned before the mutation,
// as the write left them. At the parent commit only $set and a replacement
// copied their argument: $push, $addToSet, $min, $max and an upsert's
// filter-seeded field stored it, and the caller's later write showed through.
func TestUpdateArgumentsNotRetained(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spec   func(sub *bson.Doc) query.UpdateSpec
		stored int // the _id of the document the update writes
	}{
		{"$set", func(sub *bson.Doc) query.UpdateSpec {
			return query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("$set", bson.D("m", sub))}
		}, 1},
		{"$push", func(sub *bson.Doc) query.UpdateSpec {
			return query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("$push", bson.D("arr", sub))}
		}, 1},
		{"$addToSet", func(sub *bson.Doc) query.UpdateSpec {
			return query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("$addToSet", bson.D("arr", sub))}
		}, 1},
		{"$max", func(sub *bson.Doc) query.UpdateSpec {
			return query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("$max", bson.D("m", sub))}
		}, 1},
		{"$min", func(sub *bson.Doc) query.UpdateSpec {
			return query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("$min", bson.D("low", sub))}
		}, 1},
		{"replacement", func(sub *bson.Doc) query.UpdateSpec {
			return query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("m", sub)}
		}, 1},
		{"upsert seed", func(sub *bson.Doc) query.UpdateSpec {
			return query.UpdateSpec{Query: bson.D(bson.IDKey, 2, "k", sub), Update: bson.D("$set", bson.D("v", 1)), Upsert: true}
		}, 2},
		{"upsert $push", func(sub *bson.Doc) query.UpdateSpec {
			return query.UpdateSpec{Query: bson.D(bson.IDKey, 2), Update: bson.D("$push", bson.D("arr", sub)), Upsert: true}
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCollection("args")
			if _, err := c.Insert(bson.D(bson.IDKey, 1, "arr", bson.A(), "m", bson.D("x", 0), "low", bson.D("x", 5))); err != nil {
				t.Fatal(err)
			}
			sub := bson.D("x", 1)
			res, err := c.Update(tc.spec(sub))
			if err != nil || res.Matched+res.Modified == 0 && res.UpsertedID == nil {
				t.Fatalf("update: %+v, %v", res, err)
			}
			stored := c.FindID(tc.stored)
			if stored == nil {
				t.Fatalf("document %d missing", tc.stored)
			}
			was := bson.Marshal(stored)
			snap := c.Snapshot()
			defer snap.Release()

			sub.Set("x", 99)
			if got := c.FindID(tc.stored); !bytes.Equal(bson.Marshal(got), was) {
				t.Fatalf("mutating the caller's argument changed the stored document: %v", got)
			}
			if got := snap.FindID(tc.stored); !bytes.Equal(bson.Marshal(got), was) {
				t.Fatalf("mutating the caller's argument changed a pinned snapshot: %v", got)
			}
		})
	}
}

// TestSharedSubdocumentStress: readers walk every value of documents that
// share one embedded document — through a snapshot pinned before any write
// and through the current version — while a writer rewrites nested paths of
// those documents. A write that reached a shared document would be a write
// to memory the readers read, which the race detector reports; the pinned
// snapshot's documents must also keep their encodings.
func TestSharedSubdocumentStress(t *testing.T) {
	c := NewCollection("facts")
	const facts = 64
	docs := make([]*bson.Doc, facts)
	for i := range docs {
		docs[i] = bson.D(bson.IDKey, i, "fk", 7)
	}
	if _, err := c.InsertMany(docs); err != nil {
		t.Fatal(err)
	}
	dim := bson.D("name", "store", "inner", bson.D("a", 1, "arr", bson.A(1, 2)))
	if _, err := c.UpdateMany(bson.D("fk", 7), bson.D("$set", bson.D("fk", dim))); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	defer snap.Release()
	var pinned [][]byte
	for _, d := range snap.Docs() {
		pinned = append(pinned, bson.Marshal(d))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k, d := range snap.Docs() {
					if !bytes.Equal(bson.Marshal(d), pinned[k]) {
						t.Errorf("the pinned snapshot's document changed: %v", d)
						return
					}
				}
				current := c.Snapshot()
				for _, d := range current.Docs() {
					_ = bson.Marshal(d)
				}
				current.Release()
			}
		}()
	}
	updates := []*bson.Doc{
		bson.D("$set", bson.D("fk.inner.a", 5)),
		bson.D("$inc", bson.D("fk.inner.a", 1)),
		bson.D("$push", bson.D("fk.inner.arr", 3)),
		bson.D("$unset", bson.D("fk.name", "")),
		bson.D("$rename", bson.D("fk.inner.arr", "fk.list")),
	}
	for i := 0; i < 500; i++ {
		if _, err := c.UpdateOne(bson.D(bson.IDKey, i%facts), updates[i%len(updates)]); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
