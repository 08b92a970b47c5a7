package denorm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/driver"
	"docstore/internal/storage"
)

// keyValues are the values a foreign key of the seeded documents below draws
// from: equal numbers of three widths, a string beside the number it spells,
// null, arrays (which group as themselves) and subdocuments.
var keyValues = []any{
	nil, int32(5), int64(5), 5.0, "5", int64(7), 7.5, "", "seven",
	bson.A(), bson.A(5), bson.A(5.0), bson.A(5, "5"), bson.A(bson.A(5)),
	bson.D("x", 5), bson.D("x", 5.0), bson.D("x", "5"), bson.NewDoc(0),
}

// seededKeyDocs draws n documents whose fk field is missing, or one of
// keyValues, and whose "a" is a subdocument, an array of subdocuments (so the
// dotted paths a.b and a.b.c cross it), a scalar, or missing.
func seededKeyDocs(rng *rand.Rand, n int) []*bson.Doc {
	value := func() any { return keyValues[rng.Intn(len(keyValues))] }
	inner := func() *bson.Doc {
		d := bson.NewDoc(1)
		switch rng.Intn(4) {
		case 0: // no b
		case 1:
			d.Set("b", bson.D("c", value()))
		default:
			d.Set("b", value())
		}
		return d
	}
	docs := make([]*bson.Doc, n)
	for i := range docs {
		d := bson.D("ticket", i)
		if rng.Intn(8) != 0 {
			d.Set("fk", value())
		}
		switch rng.Intn(5) {
		case 0: // no a
		case 1:
			d.Set("a", value())
		case 2:
			d.Set("a", inner())
		default:
			arr := make([]any, rng.Intn(3))
			for j := range arr {
				arr[j] = inner()
			}
			d.Set("a", arr)
		}
		docs[i] = d
	}
	return docs
}

// sortedKeys is keys in bson.Compare order.
func sortedKeys(keys []any) []any {
	out := slices.Clone(keys)
	slices.SortFunc(out, bson.Compare)
	return out
}

// TestReferencedKeysMatchesServerGroup: the keys computed in process over
// documents the caller holds are, as a set under bson.Compare, the keys the
// server's $group returns over the same documents stored — stand-alone and
// merged by a router over three shards — for a top-level field and for dotted
// paths that cross arrays.
func TestReferencedKeysMatchesServerGroup(t *testing.T) {
	for _, dep := range equivDeployments() {
		t.Run(dep.name, func(t *testing.T) {
			store := dep.open(t)
			docs := seededKeyDocs(rand.New(rand.NewSource(1)), 2000)
			if _, err := store.InsertMany("sales", docs); err != nil {
				t.Fatal(err)
			}
			for _, fk := range []string{"fk", "a", "a.b", "a.b.c"} {
				got, err := ReferencedKeys(docs, fk)
				if err != nil {
					t.Fatal(err)
				}
				want, err := StoredKeys(store, "sales", fk)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) < 5 {
					t.Fatalf("%s: the server found %d keys; the comparison proves little", fk, len(want))
				}
				got, want = sortedKeys(got), sortedKeys(want)
				if len(got) != len(want) {
					t.Fatalf("%s: %d keys in process, %d on the server:\n got  %v\n want %v", fk, len(got), len(want), got, want)
				}
				for i := range want {
					if bson.Compare(got[i], want[i]) != 0 {
						t.Fatalf("%s: key %d is %v in process, %v on the server", fk, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestReferencedKeysSupersetModifiesNothingExtra: a nested embedding's keys
// taken as the union of the keys in the fact documents before its parent's
// embedding and of the parent's fetched dimension documents — a superset of
// what the server's $group finds after that embedding — leave the collection
// as EmbedDocuments does, with the same counts. The dataset has a second
// customer 1 (the first one wins) whose address no embedded customer holds:
// that address is named only by the superset, and its update modifies
// nothing.
func TestReferencedKeysSupersetModifiesNothingExtra(t *testing.T) {
	customer := Embedding{Dimension: "customer", FKField: "c_sk", PKField: "c_sk"}
	address := Embedding{Dimension: "address", FKField: "c_sk.addr_sk", PKField: "a_sk"}
	for _, dep := range equivDeployments() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed %d", dep.name, seed), func(t *testing.T) {
				want, got := dep.open(t), dep.open(t)
				for _, store := range []driver.Store{want, got} {
					loadEquivDataset(t, store, seed)
					if _, err := store.InsertMany("address", []*bson.Doc{bson.D("a_sk", 1000, "city", "named by the superset only")}); err != nil {
						t.Fatal(err)
					}
					if _, err := store.InsertMany("customer", []*bson.Doc{bson.D("c_sk", 1, "name", "second customer 1", "addr_sk", 1000)}); err != nil {
						t.Fatal(err)
					}
				}
				wantCustomers, err := EmbedDocuments(want, "sales", customer)
				if err != nil {
					t.Fatal(err)
				}
				wantAddresses, err := EmbedDocuments(want, "sales", address)
				if err != nil {
					t.Fatal(err)
				}

				sales, err := got.Find("sales", nil, storage.FindOptions{})
				if err != nil {
					t.Fatal(err)
				}
				keys, err := ReferencedKeys(sales, customer.FKField)
				if err != nil {
					t.Fatal(err)
				}
				customers, err := FetchDimension(got, customer, keys)
				if err != nil {
					t.Fatal(err)
				}
				gotCustomers, err := ApplyEmbedding(got, "sales", customer, customers)
				if err != nil {
					t.Fatal(err)
				}
				stored, err := StoredKeys(got, "sales", address.FKField)
				if err != nil {
					t.Fatal(err)
				}
				superset, err := ReferencedKeys(sales, address.FKField)
				if err != nil {
					t.Fatal(err)
				}
				fromCustomers, err := ReferencedKeys(customers, "addr_sk")
				if err != nil {
					t.Fatal(err)
				}
				superset = append(superset, fromCustomers...)
				for _, k := range stored {
					if !slices.ContainsFunc(superset, func(s any) bool { return bson.Compare(s, k) == 0 }) {
						t.Fatalf("the server's key %v is not in the union", k)
					}
				}
				addresses, err := FetchDimension(got, address, superset)
				if err != nil {
					t.Fatal(err)
				}
				var extra, named []*bson.Doc
				for _, d := range addresses {
					pk, _ := d.Get(address.PKField)
					if slices.ContainsFunc(stored, func(s any) bool { return bson.Compare(s, pk) == 0 }) {
						named = append(named, d)
					} else {
						extra = append(extra, d)
					}
				}
				if len(extra) == 0 {
					t.Fatal("no address is named by the superset only: the case is not exercised")
				}
				if n, err := ApplyEmbedding(got, "sales", address, extra); err != nil || n != 0 {
					t.Fatalf("the addresses named by the superset only modified %d documents (%v), want 0", n, err)
				}
				gotAddresses, err := ApplyEmbedding(got, "sales", address, named)
				if err != nil {
					t.Fatal(err)
				}
				if gotCustomers != wantCustomers || gotAddresses != wantAddresses {
					t.Fatalf("modified %d customers and %d addresses, EmbedDocuments %d and %d",
						gotCustomers, gotAddresses, wantCustomers, wantAddresses)
				}
				if wantAddresses == 0 {
					t.Fatal("the nested embedding modified nothing: the dataset exercises no join")
				}
				wantDocs, gotDocs := sortedJSON(t, want, "sales"), sortedJSON(t, got, "sales")
				if !slices.Equal(gotDocs, wantDocs) {
					t.Fatalf("the collections differ:\n got  %v\n want %v", gotDocs, wantDocs)
				}
			})
		}
	}
}
