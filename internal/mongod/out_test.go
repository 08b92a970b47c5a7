package mongod

import (
	"sync"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// TestOutReplacesTargetAtomically: $out empties its target and fills it
// under one write-lock acquisition, published as one version. While two
// goroutines $out two different results — the same _ids, so a half-replaced
// target would refuse the next insert as a duplicate — into one collection
// 200 times, every aggregate succeeds and a reader never counts anything but
// a whole result: never the empty collection between the wipe and the fill,
// never documents of both. The journal still holds a wipe and a batch per
// $out, in that order: recovery rebuilds the target as the last $out left it.
func TestOutReplacesTargetAtomically(t *testing.T) {
	const perSide, rounds = 8, 100
	dir := t.TempDir()
	s, _ := durableServer(t, dir, wal.SyncGroupCommit)
	db := s.Database("db")
	var src []*bson.Doc
	for i := 0; i < perSide; i++ {
		src = append(src, bson.D("k", i, "side", "a"), bson.D("k", i, "side", "b"))
	}
	if _, err := db.InsertMany("src", src); err != nil {
		t.Fatal(err)
	}
	out := func(side string) error {
		_, err := db.Aggregate("src", []*bson.Doc{
			bson.D("$match", bson.D("side", side)),
			bson.D("$project", bson.D(bson.IDKey, "$k", "side", 1)),
			bson.D("$out", "target"),
		})
		return err
	}
	if err := out("a"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var reader, writers sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for reads := 0; ; reads++ {
			select {
			case <-stop:
				if reads == 0 {
					t.Error("the reader never ran")
				}
				return
			default:
			}
			docs, err := db.Find("target", nil, storage.FindOptions{})
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			if len(docs) != perSide {
				t.Errorf("reader counted %d documents in the target, want %d", len(docs), perSide)
				return
			}
			for _, d := range docs[1:] {
				if d.GetOr("side", nil) != docs[0].GetOr("side", nil) {
					t.Errorf("reader saw a mix of two results: %v", docs)
					return
				}
			}
		}
	}()
	for _, side := range []string{"a", "b"} {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				if err := out(side); err != nil {
					t.Errorf("$out of side %s, round %d: %v", side, i, err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	if t.Failed() {
		return
	}

	byID, err := query.ParseSort(bson.D(bson.IDKey, 1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Find("target", nil, storage.FindOptions{Sort: byID})
	if err != nil || len(want) != perSide {
		t.Fatalf("the target holds %d documents, %v", len(want), err)
	}
	// Crash: abandon the server without closing the WAL.
	s2, _ := durableServer(t, dir, wal.SyncGroupCommit)
	got, err := s2.Database("db").Find("target", nil, storage.FindOptions{Sort: byID})
	if err != nil || len(got) != len(want) {
		t.Fatalf("recovery rebuilt %d documents in the target, %v; want %d", len(got), err, len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("recovered document %d = %s, want %s", i, got[i], want[i])
		}
	}
}
