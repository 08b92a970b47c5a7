package storage

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/query"
)

// fakeJournal records what the collection logs, tagging each record with a
// sequence number, and tracks how Wait is called.
type fakeJournal struct {
	mu         sync.Mutex
	nextLSN    int64
	batches    []loggedBatch
	replaces   [][]*bson.Doc
	indexes    []loggedIndex
	indexDrops []string
	failLog    bool
}

type loggedBatch struct {
	lsn     int64
	ops     []WriteOp
	ordered bool
}

type loggedIndex struct {
	spec   *bson.Doc
	unique bool
}

type fakeCommit struct {
	j         *fakeJournal
	lsn       int64
	waited    bool
	journaled bool
}

func (j *fakeJournal) LogBatch(ops []WriteOp, ordered bool) (CommitWaiter, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failLog {
		return nil, fmt.Errorf("journal unavailable")
	}
	j.nextLSN++
	// Snapshot the op slice shallowly: the engine hands the caller's batch.
	j.batches = append(j.batches, loggedBatch{lsn: j.nextLSN, ops: append([]WriteOp(nil), ops...), ordered: ordered})
	return &fakeCommit{j: j, lsn: j.nextLSN}, nil
}

func (j *fakeJournal) LogReplace(docs []*bson.Doc) (CommitWaiter, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failLog {
		return nil, fmt.Errorf("journal unavailable")
	}
	j.nextLSN++
	j.replaces = append(j.replaces, append([]*bson.Doc(nil), docs...))
	return &fakeCommit{j: j, lsn: j.nextLSN}, nil
}

func (j *fakeJournal) LogEnsureIndex(spec *bson.Doc, unique bool) (CommitWaiter, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.nextLSN++
	j.indexes = append(j.indexes, loggedIndex{spec: spec.Clone(), unique: unique})
	return &fakeCommit{j: j, lsn: j.nextLSN}, nil
}

func (j *fakeJournal) LogDropIndex(name string) (CommitWaiter, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.nextLSN++
	j.indexDrops = append(j.indexDrops, name)
	return &fakeCommit{j: j, lsn: j.nextLSN}, nil
}

func (c *fakeCommit) LSN() int64 { return c.lsn }
func (c *fakeCommit) Wait(journaled bool) error {
	c.j.mu.Lock()
	defer c.j.mu.Unlock()
	c.waited = true
	c.journaled = journaled
	return nil
}

func TestJournalReceivesEveryWriteShape(t *testing.T) {
	j := &fakeJournal{}
	c := NewCollection("c")
	c.SetJournal(j)

	if _, err := c.Insert(bson.D(bson.IDKey, 1, "v", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update(query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("$inc", bson.D("v", 1))}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(bson.D(bson.IDKey, 1), false); err != nil {
		t.Fatal(err)
	}
	res := c.BulkWrite([]WriteOp{
		InsertWriteOp(bson.D(bson.IDKey, 2)),
		InsertWriteOp(bson.D(bson.IDKey, 3)),
	}, BulkOptions{Ordered: true})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceContents(nil); err != nil {
		t.Fatal(err)
	}

	if len(j.batches) != 4 {
		t.Fatalf("logged %d batches, want 4", len(j.batches))
	}
	if len(j.replaces) != 1 || len(j.replaces[0]) != 0 {
		t.Fatalf("logged replacements %v, want one empty one", j.replaces)
	}
	kinds := []WriteOpKind{j.batches[0].ops[0].Kind, j.batches[1].ops[0].Kind, j.batches[2].ops[0].Kind}
	if kinds[0] != InsertOp || kinds[1] != UpdateOp || kinds[2] != DeleteOp {
		t.Fatalf("logged kinds = %v", kinds)
	}
	if len(j.batches[3].ops) != 2 || !j.batches[3].ordered {
		t.Fatalf("bulk batch logged as %+v", j.batches[3])
	}
	if c.LastLSN() != 5 {
		t.Fatalf("LastLSN = %d, want 5", c.LastLSN())
	}
}

func TestJournalAssignsInsertIDsBeforeLogging(t *testing.T) {
	j := &fakeJournal{}
	c := NewCollection("c")
	c.SetJournal(j)
	id, err := c.Insert(bson.D("v", 1))
	if err != nil {
		t.Fatal(err)
	}
	logged := j.batches[0].ops[0].Doc
	loggedID, ok := logged.Get(bson.IDKey)
	if !ok {
		t.Fatalf("logged insert has no _id: a replay would generate a different one")
	}
	if bson.Compare(loggedID, id) != 0 {
		t.Fatalf("logged _id %v differs from returned id %v", loggedID, id)
	}
}

func TestJournalFailureRejectsTheWrite(t *testing.T) {
	j := &fakeJournal{failLog: true}
	c := NewCollection("c")
	c.SetJournal(j)
	if _, err := c.Insert(bson.D(bson.IDKey, 1)); err == nil {
		t.Fatalf("insert with failing journal should error")
	}
	if c.Count() != 0 {
		t.Fatalf("write applied despite journal failure")
	}
	res := c.BulkWrite([]WriteOp{InsertWriteOp(bson.D(bson.IDKey, 2))}, BulkOptions{})
	if res.DurabilityErr == nil || res.Attempted != 0 {
		t.Fatalf("bulk with failing journal: %+v", res)
	}
	if res.FirstError() == nil {
		t.Fatalf("FirstError must surface the durability failure")
	}
}

// TestReplaceContentsJournalsOneRecord: a replacement is one record, the new
// documents with their _ids, not a wipe and then a batch.
func TestReplaceContentsJournalsOneRecord(t *testing.T) {
	j := &fakeJournal{}
	c := NewCollection("c")
	c.SetJournal(j)
	if _, err := c.Insert(bson.D(bson.IDKey, "old")); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceContents([]*bson.Doc{bson.D(bson.IDKey, 1), bson.D("v", 2)}); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.batches) != 1 || len(j.replaces) != 1 {
		t.Fatalf("logged %d batches, %d replaces; want the insert's batch and one replace",
			len(j.batches), len(j.replaces))
	}
	logged := j.replaces[0]
	if len(logged) != 2 || logged[0].ID() != int64(1) || logged[1].ID() == nil {
		t.Fatalf("logged replacement = %v, want both rows with their _ids", logged)
	}
	if got := c.FindID(logged[1].ID()); got == nil || !got.Equal(logged[1]) {
		t.Fatalf("the stored row %v is not the logged one %v", got, logged[1])
	}
	if c.LastLSN() != 2 || c.Count() != 2 {
		t.Fatalf("LastLSN = %d, Count = %d; want 2, 2", c.LastLSN(), c.Count())
	}
}

// TestReplaceContentsJournalFailureKeepsTheTarget: when the journal refuses
// the replacement, the target keeps its old documents, its watermark and its
// published version: nothing was cleared and nothing was published.
func TestReplaceContentsJournalFailureKeepsTheTarget(t *testing.T) {
	j := &fakeJournal{}
	c := NewCollection("c")
	c.SetJournal(j)
	if _, err := c.InsertMany([]*bson.Doc{bson.D(bson.IDKey, "a"), bson.D(bson.IDKey, "b")}); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()
	defer before.Release()
	j.mu.Lock()
	j.failLog = true
	j.mu.Unlock()
	if err := c.ReplaceContents([]*bson.Doc{bson.D(bson.IDKey, "new")}); err == nil {
		t.Fatalf("a replacement the journal refused succeeded")
	}
	after := c.Snapshot()
	defer after.Release()
	if after.Version() != before.Version() {
		t.Fatalf("a refused replacement published version %d over %d", after.Version(), before.Version())
	}
	if c.Count() != 2 || c.FindID("a") == nil || c.FindID("b") == nil || c.FindID("new") != nil {
		t.Fatalf("the target holds %v after a refused replacement", after.Docs())
	}
	if c.LastLSN() != 1 {
		t.Fatalf("LastLSN = %d, want 1", c.LastLSN())
	}
	// The collection still takes writes once the journal recovers.
	j.mu.Lock()
	j.failLog = false
	j.mu.Unlock()
	if err := c.ReplaceContents([]*bson.Doc{bson.D(bson.IDKey, "new")}); err != nil || c.Count() != 1 {
		t.Fatalf("replacement after the journal recovered: %v, count %d", err, c.Count())
	}
}

func TestJournaledOptionForcesSync(t *testing.T) {
	j := &fakeJournal{}
	c := NewCollection("c")
	c.SetJournal(j)
	res := c.BulkWrite([]WriteOp{InsertWriteOp(bson.D(bson.IDKey, 1))}, BulkOptions{Journaled: true})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.batches) != 1 {
		t.Fatalf("logged %d batches", len(j.batches))
	}
}

// TestSnapshotConsistentUnderConcurrentWrites hammers a collection with
// writers while snapshots stream out; every snapshot must load cleanly,
// which fails if the header count and the document stream come from
// different moments (the pre-fix race). The writers run freely, as fast as
// the machine lets them, but on a fixed budget of inserts; snapshots are
// taken back to back until the budget is spent, so every one of them but the
// last streams while inserts commit, and a round never costs more than the
// budget's documents.
func TestSnapshotConsistentUnderConcurrentWrites(t *testing.T) {
	const writers, perWriter = 4, 5000
	c := NewCollection("c")
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := c.Insert(bson.D(bson.IDKey, fmt.Sprintf("%d-%d", g, i))); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	overlapped := 0
	for round, spent := 0, false; !spent; round++ {
		select {
		case <-done:
			spent = true // one last snapshot of the quiet collection
		default:
		}
		var buf bytes.Buffer
		snap := c.Snapshot()
		if err := snap.WriteData(&buf); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		info := snap.Info()
		restored := NewCollection("r")
		if err := restored.ReadSnapshot(&buf); err != nil {
			t.Fatalf("round %d: snapshot does not load: %v", round, err)
		}
		if restored.Count() != info.Count {
			t.Fatalf("round %d: snapshot says %d docs, loaded %d", round, info.Count, restored.Count())
		}
		if c.Count() > info.Count {
			overlapped++
		}
	}
	if overlapped == 0 {
		t.Fatalf("no snapshot streamed while inserts committed; the test exercised nothing")
	}
	if got, want := c.Count(), writers*perWriter; got != want {
		t.Fatalf("writers inserted %d documents, want %d", got, want)
	}
}

func TestReadSnapshotRejectsCountMismatch(t *testing.T) {
	c := NewCollection("c")
	for i := 0; i < 3; i++ {
		if _, err := c.Insert(bson.D(bson.IDKey, i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	snap := c.Snapshot()
	err := snap.WriteData(&buf)
	snap.Release()
	if err != nil {
		t.Fatal(err)
	}
	// Trailing documents beyond the header count must be rejected, not
	// silently ignored.
	extra := bson.Marshal(bson.D(bson.IDKey, 99))
	tampered := append(append([]byte(nil), buf.Bytes()...), extra...)
	bad := NewCollection("bad")
	if err := bad.ReadSnapshot(bytes.NewReader(tampered)); err == nil {
		t.Fatalf("trailing data beyond the header count must fail")
	}
	// The untampered stream still loads.
	good := NewCollection("good")
	if err := good.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("clean snapshot failed: %v", err)
	}
	if good.Count() != 3 {
		t.Fatalf("loaded %d docs", good.Count())
	}
}

// TestTooDeepDocumentIsRefusedBeforeTheLog holds the engine to
// bson.MaxDocumentDepth where documents enter it. A batch with an op whose
// document, filter or update nests deeper is refused whole and the journal
// never hears of it, because a log record holds every op of its batch and a
// decoder would not get past this one. An update or an upsert that builds a
// document too deep out of shallow parts is logged, as any op that fails
// when applied, and fails the same way on replay; the document stays as it
// was, in the records and in the indexes.
func TestTooDeepDocumentIsRefusedBeforeTheLog(t *testing.T) {
	chain := func(levels int) *bson.Doc {
		d := bson.D("leaf", 1)
		for i := 1; i < levels; i++ {
			d = bson.D("a", d)
		}
		return d
	}
	j := &fakeJournal{}
	c := NewCollection("c")
	c.SetJournal(j)
	if _, err := c.EnsureIndexDoc(bson.D("k", 1), false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(bson.D(bson.IDKey, 1, "k", 1, "v", chain(bson.MaxDocumentDepth-1))); err != nil {
		t.Fatalf("insert at the limit: %v", err)
	}
	logged := len(j.batches)

	tooDeep := chain(bson.MaxDocumentDepth + 1)
	for name, op := range map[string]WriteOp{
		"insert":        InsertWriteOp(bson.D(bson.IDKey, 2, "v", chain(bson.MaxDocumentDepth))),
		"update filter": UpdateWriteOp(query.UpdateSpec{Query: tooDeep, Update: bson.D("$set", bson.D("k", 2))}),
		"update":        UpdateWriteOp(query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("$set", tooDeep)}),
		"delete filter": DeleteWriteOp(tooDeep, true),
	} {
		res := c.BulkWrite([]WriteOp{InsertWriteOp(bson.D(bson.IDKey, "beside "+name)), op}, BulkOptions{})
		if !errors.Is(res.FirstError(), ErrDocumentTooDeep) || len(res.Errors) != 1 || res.Errors[0].Index != 1 || res.Attempted != 0 {
			t.Errorf("%s too deep: attempted %d, errors %v", name, res.Attempted, res.Errors)
		}
	}
	if len(j.batches) != logged || c.Count() != 1 {
		t.Fatalf("refused batches left %d log records and %d documents behind", len(j.batches)-logged, c.Count()-1)
	}

	// Built too deep: 40 steps of path over 60 levels of value.
	path := strings.Repeat("a.", 39) + "a"
	_, err := c.Update(query.UpdateSpec{Query: bson.D("k", 1), Update: bson.D("$set", bson.D(path, chain(60), "k", 5))})
	if !errors.Is(err, ErrDocumentTooDeep) {
		t.Fatalf("update building %d levels: %v", 101, err)
	}
	_, err = c.Update(query.UpdateSpec{Query: bson.D(bson.IDKey, 9), Update: bson.D("$set", bson.D(path, chain(60))), Upsert: true})
	if !errors.Is(err, ErrDocumentTooDeep) {
		t.Fatalf("upsert building %d levels: %v", 101, err)
	}
	if len(j.batches) != logged+2 {
		t.Errorf("%d log records for two updates that failed when applied, want 2", len(j.batches)-logged)
	}
	one, _ := c.CountDocs(bson.D("k", 1))
	five, _ := c.CountDocs(bson.D("k", 5))
	if c.Count() != 1 || one != 1 || five != 0 {
		t.Errorf("the refused update changed the collection: %d documents, %d with k=1, %d with k=5", c.Count(), one, five)
	}
}
