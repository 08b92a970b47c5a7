package denorm

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/cluster"
	"docstore/internal/driver"
	"docstore/internal/query"
	"docstore/internal/storage"
)

// embedDocumentsPerKey is Figure 4.7 as the thesis draws it, kept as the
// reference the set-oriented EmbedDocuments is checked against: a HashMap of
// every dimension primary key to its document (minus _id), then one
// multi-document update per entry.
func embedDocumentsPerKey(store driver.Store, fact string, emb Embedding) (int, error) {
	dimDocs, err := store.Find(emb.Dimension, nil, storage.FindOptions{})
	if err != nil {
		return 0, err
	}
	modified := 0
	for _, d := range dimDocs {
		pk, ok := d.Get(emb.PKField)
		if !ok {
			continue
		}
		doc := d.Clone()
		doc.Delete(bson.IDKey)
		res, err := store.Update(fact, query.UpdateSpec{
			Query:  bson.D(emb.FKField, pk),
			Update: bson.D("$set", bson.D(emb.FKField, doc)),
			Multi:  true,
		})
		if err != nil {
			return modified, err
		}
		modified += res.Modified
	}
	return modified, nil
}

// equivDeployment is one way of deploying the fact collection.
type equivDeployment struct {
	name string
	open func(t *testing.T) driver.Store
}

func equivDeployments() []equivDeployment {
	return []equivDeployment{
		{"stand-alone", func(*testing.T) driver.Store { return newStore() }},
		{"3 shards, fact sharded", func(t *testing.T) driver.Store {
			c, err := cluster.Build(cluster.Config{Shards: 3, ParallelScatter: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.ShardCollection("test", "sales", bson.D("ticket", "hashed")); err != nil {
				t.Fatal(err)
			}
			return driver.NewSharded(c.Router(), "test")
		}},
	}
}

// loadEquivDataset fills a store with a randomized customer → address
// snowflake around a sales fact. The draws cover what Figure 4.7 has to get
// right: sales without the foreign key, sales whose key no customer has
// (dangling), customers no sale references, customers without an address key
// or with a dangling one, a dimension document without its primary key, and
// a primary key two dimension documents share (the first one wins).
func loadEquivDataset(t *testing.T, store driver.Store, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	customers, addresses, nSales := 20+rng.Intn(60), 5+rng.Intn(20), 200+rng.Intn(400)
	var docs []*bson.Doc
	for a := 1; a <= addresses; a++ {
		docs = append(docs, bson.D("a_sk", a, "city", fmt.Sprintf("city-%d", rng.Intn(7))))
	}
	docs = append(docs, bson.D("city", "no primary key"), bson.D("a_sk", 1, "city", "duplicate of 1"))
	if _, err := store.InsertMany("address", docs); err != nil {
		t.Fatal(err)
	}
	docs = docs[:0]
	for c := 1; c <= customers; c++ {
		d := bson.D("c_sk", c, "name", fmt.Sprintf("customer-%d", c))
		switch rng.Intn(6) {
		case 0: // no address key
		case 1:
			d.Set("addr_sk", addresses+1+rng.Intn(5)) // dangling
		default:
			d.Set("addr_sk", 1+rng.Intn(addresses))
		}
		docs = append(docs, d)
	}
	docs = append(docs, bson.D("name", "no primary key"), bson.D("c_sk", 2, "name", "duplicate of 2", "addr_sk", 1))
	if _, err := store.InsertMany("customer", docs); err != nil {
		t.Fatal(err)
	}
	docs = nil
	for s := 0; s < nSales; s++ {
		d := bson.D(bson.IDKey, s, "ticket", rng.Intn(nSales/3), "qty", rng.Intn(100))
		switch rng.Intn(8) {
		case 0: // no customer key
		case 1:
			d.Set("c_sk", customers+1+rng.Intn(5)) // dangling
		default:
			// Only the lower half is referenced, so half the dimension is
			// never fetched by the set-oriented path.
			d.Set("c_sk", 1+rng.Intn(customers/2))
		}
		docs = append(docs, d)
	}
	if _, err := store.InsertMany("sales", docs); err != nil {
		t.Fatal(err)
	}
}

func sortedJSON(t *testing.T, store driver.Store, coll string) []string {
	t.Helper()
	docs, err := store.Find(coll, nil, storage.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.ToJSON()
	}
	sort.Strings(out)
	return out
}

// TestEmbedDocumentsMatchesPerKeyReference runs the same embedding steps —
// a dimension, a second dimension through a dotted path into the first, and
// both again over the already embedded collection — through the per-key
// reference on one copy of a randomized dataset and through EmbedDocuments
// on another, stand-alone and through a router with the fact sharded. Every step must
// report the same number of modified documents and leave the same
// collection.
func TestEmbedDocumentsMatchesPerKeyReference(t *testing.T) {
	steps := []Embedding{
		{Dimension: "customer", FKField: "c_sk", PKField: "c_sk"},
		{Dimension: "address", FKField: "c_sk.addr_sk", PKField: "a_sk"},
		{Dimension: "customer", FKField: "c_sk", PKField: "c_sk"},
		{Dimension: "address", FKField: "c_sk.addr_sk", PKField: "a_sk"},
	}
	for _, dep := range equivDeployments() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed %d", dep.name, seed), func(t *testing.T) {
				want, got := dep.open(t), dep.open(t)
				loadEquivDataset(t, want, seed)
				loadEquivDataset(t, got, seed)
				if s, ok := got.(*driver.Sharded); ok {
					spread := 0
					for _, name := range s.Router.ShardNames() {
						if s.Router.Shard(name).Database("test").Collection("sales").Count() > 0 {
							spread++
						}
					}
					if spread < 2 {
						t.Fatalf("the fact sits on %d shard(s); the sharded case needs it spread", spread)
					}
				}
				for i, emb := range steps {
					wantN, err := embedDocumentsPerKey(want, "sales", emb)
					if err != nil {
						t.Fatal(err)
					}
					gotN, err := EmbedDocuments(got, "sales", emb)
					if err != nil {
						t.Fatal(err)
					}
					if gotN != wantN {
						t.Fatalf("step %d (%s at %s): modified %d documents, the reference %d", i, emb.Dimension, emb.FKField, gotN, wantN)
					}
					if i == 0 && wantN == 0 {
						t.Fatal("the first embedding modified nothing: the dataset exercises no join")
					}
					if i >= 2 && wantN != 0 {
						t.Fatalf("step %d: re-running an embedding modified %d documents, want 0", i, wantN)
					}
					wantDocs, gotDocs := sortedJSON(t, want, "sales"), sortedJSON(t, got, "sales")
					if len(gotDocs) != len(wantDocs) {
						t.Fatalf("step %d: %d documents, the reference has %d", i, len(gotDocs), len(wantDocs))
					}
					for j := range wantDocs {
						if gotDocs[j] != wantDocs[j] {
							t.Fatalf("step %d: document %d differs:\n got  %s\n want %s", i, j, gotDocs[j], wantDocs[j])
						}
					}
				}
			})
		}
	}
}

// TestEmbedDocumentsChunksItsUpdates: more referenced keys than embedChunk
// still embed completely, in ceil(keys / embedChunk) bulk writes.
func TestEmbedDocumentsChunksItsUpdates(t *testing.T) {
	store := &bulkCounter{Store: newStore()}
	n := 2*embedChunk + 10
	dims, facts := make([]*bson.Doc, n), make([]*bson.Doc, n)
	for i := range dims {
		dims[i] = bson.D("pk", i, "attr", i%7)
		facts[i] = bson.D("fk", i)
	}
	if _, err := store.InsertMany("dim", dims); err != nil {
		t.Fatal(err)
	}
	if err := store.EnsureIndex("dim", bson.D("pk", 1), false); err != nil {
		t.Fatal(err)
	}
	if _, err := store.InsertMany("fact", facts); err != nil {
		t.Fatal(err)
	}
	if err := store.EnsureIndex("fact", bson.D("fk", 1), false); err != nil {
		t.Fatal(err)
	}
	modified, err := EmbedDocuments(store, "fact", Embedding{Dimension: "dim", FKField: "fk", PKField: "pk"})
	if err != nil || modified != n {
		t.Fatalf("modified %d of %d documents, err %v", modified, n, err)
	}
	if store.bulks != 3 {
		t.Fatalf("%d keys shipped in %d bulk writes, want 3", n, store.bulks)
	}
	if left, _ := store.Count("fact", bson.D("fk.attr", bson.D("$exists", false))); left != 0 {
		t.Fatalf("%d fact documents were not embedded", left)
	}
}

type bulkCounter struct {
	driver.Store
	bulks int
}

func (s *bulkCounter) BulkWrite(coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	s.bulks++
	return s.Store.BulkWrite(coll, ops, opts)
}
