package mongod

import (
	"errors"
	"strings"
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
// never documents of both. The journal holds one replace record per $out:
// recovery rebuilds the target as the last $out left it.
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

// TestFailedOutLeavesTargetAsItWas: a $out whose result the engine refuses —
// a duplicate _id, a row over the size limit, a row nested too deep — fails
// before it touches its target, as MongoDB's does. The target still holds
// its old documents, a snapshot pinned before the $out reads them
// unchanged, and recovery of the data directory rebuilds the target as it
// was before the $out: nothing of the refused result reached the journal.
func TestFailedOutLeavesTargetAsItWas(t *testing.T) {
	dir := t.TempDir()
	s, _ := durableServer(t, dir, wal.SyncGroupCommit)
	db := s.Database("db")
	old := []*bson.Doc{bson.D(bson.IDKey, "old1"), bson.D(bson.IDKey, "old2")}
	if _, err := db.InsertMany("target", old); err != nil {
		t.Fatal(err)
	}
	src := []*bson.Doc{
		bson.D("case", "duplicate", "k", 1), bson.D("case", "duplicate", "k", 2),
		bson.D("case", "duplicate", "k", 2), bson.D("case", "duplicate", "k", 3),
		bson.D("case", "size", "big", strings.Repeat("x", bson.MaxDocumentSize/2)),
		bson.D("case", "depth", "v", nest("leaf", 89)),
	}
	if _, err := db.InsertMany("src", src); err != nil {
		t.Fatal(err)
	}
	snap := db.Collection("target").Snapshot()
	defer snap.Release()
	cases := []struct {
		name  string
		stage *bson.Doc
		want  func(error) bool
	}{
		{"duplicate", bson.D("$project", bson.D(bson.IDKey, "$k")), func(err error) bool {
			var dup *storage.ErrDuplicateID
			return errors.As(err, &dup) && dup.ID == int64(2)
		}},
		{"size", bson.D("$project", bson.D("a", "$big", "b", "$big")), func(err error) bool {
			var tooBig *storage.ErrDocumentTooLarge
			return errors.As(err, &tooBig)
		}},
		{"depth", bson.D("$project", bson.D("w", nest("$v", 10))), func(err error) bool {
			return errors.Is(err, storage.ErrDocumentTooDeep)
		}},
	}
	same := func(what string, got []*bson.Doc) {
		t.Helper()
		if len(got) != len(old) {
			t.Fatalf("%s holds %v, want %v", what, got, old)
		}
		for i := range old {
			if !got[i].Equal(old[i]) {
				t.Fatalf("%s holds %v, want %v", what, got, old)
			}
		}
	}
	for _, c := range cases {
		_, err := db.Aggregate("src", []*bson.Doc{
			bson.D("$match", bson.D("case", c.name)), c.stage, bson.D("$out", "target"),
		})
		if !c.want(err) {
			t.Fatalf("%s: $out = %v", c.name, err)
		}
		kept, err := db.Find("target", nil, storage.FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		same(c.name+": the target", kept)
		same(c.name+": the snapshot pinned before the $out", snap.Docs())
	}

	// Crash: abandon the server without closing the WAL.
	s2, _ := durableServer(t, dir, wal.SyncGroupCommit)
	recovered, err := s2.Database("db").Find("target", nil, storage.FindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	same("the recovered target", recovered)
}
