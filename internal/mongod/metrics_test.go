package mongod

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/query"
	"docstore/internal/storage"
)

// testClock is the repo's injectable-clock pattern: time advances only when
// the test says so.
type testClock struct {
	ns atomic.Int64
}

func (c *testClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// opCounts reads every known op's histogram count.
func opCounts(s *Server) map[string]int64 {
	out := make(map[string]int64, len(knownOps))
	for _, op := range knownOps {
		out[op] = s.OpDurations(op).Count
	}
	return out
}

// TestRecordOpAllocatesNothing guards the cost every mongod operation pays to
// be counted: it lands in its counter and histogram without allocating.
func TestRecordOpAllocatesNothing(t *testing.T) {
	s := NewServer(Options{Name: "ops"})
	start := time.Now()
	got := testing.AllocsPerRun(1000, func() {
		s.record("find", start)
	})
	if got != 0 {
		t.Errorf("recording an op allocates %.0f times, want 0", got)
	}
	if snap := s.OpDurations("find"); snap.Count != 1001 {
		t.Fatalf("find histogram count = %d, want 1001", snap.Count)
	}
}

// TestEachOpLandsInOneSeries records one op of each kind, and one of a kind
// outside the list, on a fresh server: it must show in exactly one
// docstore_mongod_ops_total series and one histogram, its own or "other".
func TestEachOpLandsInOneSeries(t *testing.T) {
	for _, tc := range []struct{ op, series string }{
		{"insert", "insert"},
		{"find", "find"},
		{"update", "update"},
		{"delete", "delete"},
		{"aggregate", "aggregate"},
		{"bulkWrite", "bulkWrite"},
		{"other", "other"},
		{"count", "other"},
	} {
		t.Run(tc.op, func(t *testing.T) {
			s := NewServer(Options{Name: "ops"})
			s.record(tc.op, time.Now())

			var b strings.Builder
			s.Metrics().WritePrometheus(&b)
			out := b.String()
			for _, op := range knownOps {
				want := 0
				if op == tc.series {
					want = 1
				}
				for _, series := range []string{
					fmt.Sprintf("%s{op=%q} %d\n", metricOpsTotal, op, want),
					fmt.Sprintf("%s_count{op=%q} %d\n", metricOpDuration, op, want),
				} {
					if !strings.Contains(out, series) {
						t.Fatalf("exposition lacks %q:\n%s", series, out)
					}
				}
				if got := s.OpDurations(op).Count; got != int64(want) {
					t.Fatalf("OpDurations(%q).Count = %d, want %d", op, got, want)
				}
			}
		})
	}
}

// TestEntryPointsRecordTheirOp drives each Database entry point once, in
// turn on one server, and checks it lands in its own op's histogram and in no
// other: a one-op batch under its op's kind whichever entry point produced
// it, a larger batch as one bulkWrite, and a cursor that fails to open at
// once.
func TestEntryPointsRecordTheirOp(t *testing.T) {
	s := NewServer(Options{})
	db := s.Database("d")
	for _, step := range []struct {
		name, op string
		fails    bool
		run      func() error
	}{
		{"Insert", "insert", false, func() error { _, err := db.Insert("c", bson.D(bson.IDKey, 1, "v", 1)); return err }},
		{"InsertMany", "bulkWrite", false, func() error {
			_, err := db.InsertMany("c", []*bson.Doc{bson.D(bson.IDKey, 2), bson.D(bson.IDKey, 3)})
			return err
		}},
		{"Find", "find", false, func() error { _, err := db.Find("c", nil, storage.FindOptions{}); return err }},
		{"FindCursor", "find", false, func() error {
			cur, err := db.FindCursor("c", nil, storage.FindOptions{BatchSize: 1})
			if err != nil {
				return err
			}
			_, err = cur.All()
			return err
		}},
		{"FindCursor unknown hint", "find", true, func() error {
			_, err := db.FindCursor("c", nil, storage.FindOptions{Hint: "nope_1"})
			return err
		}},
		{"Update", "update", false, func() error {
			_, err := db.Update("c", query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("$set", bson.D("v", 2))})
			return err
		}},
		{"BulkWrite of one update", "update", false, func() error {
			ops := []storage.WriteOp{storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D(bson.IDKey, 2), Update: bson.D("$set", bson.D("v", 3))})}
			res := db.BulkWrite("c", ops, storage.BulkOptions{})
			return res.FirstError()
		}},
		{"Delete", "delete", false, func() error { _, err := db.Delete("c", bson.D(bson.IDKey, 3), false); return err }},
		{"Aggregate", "aggregate", false, func() error {
			_, err := db.Aggregate("c", []*bson.Doc{bson.D("$match", bson.D("v", 2))})
			return err
		}},
		{"AggregateCursor", "aggregate", false, func() error {
			it, err := db.AggregateCursor("c", []*bson.Doc{bson.D("$project", bson.D("v", 1))})
			if err != nil {
				return err
			}
			_, err = aggregate.Drain(it)
			return err
		}},
		{"AggregateCursor unknown stage", "aggregate", true, func() error {
			_, err := db.AggregateCursor("c", []*bson.Doc{bson.D("$bogus", 1)})
			return err
		}},
	} {
		t.Run(step.name, func(t *testing.T) {
			before := opCounts(s)
			if err := step.run(); (err != nil) != step.fails {
				t.Fatalf("error = %v, want failure %v", err, step.fails)
			}
			for op, n := range opCounts(s) {
				want := before[op]
				if op == step.op {
					want++
				}
				if n != want {
					t.Fatalf("after one %s: %s count = %d, want %d", step.op, op, n, want)
				}
			}
		})
	}
}

// TestCursorDurationSpansDrain checks a streamed query is timed over its
// whole drain, not just cursor construction: the recorded duration must
// include time spent between batches. The server's clock is injected and
// advanced explicitly between open and drain, so the assertion is exact on
// any scheduler — no sleeping.
func TestCursorDurationSpansDrain(t *testing.T) {
	const pause = 20 * time.Millisecond
	open := func(t *testing.T) (*Server, *testClock, *Database) {
		t.Helper()
		srv := NewServer(Options{})
		clk := &testClock{}
		srv.clock = clk.Now
		db := srv.Database("db")
		for i := 0; i < 50; i++ {
			if _, err := db.Insert("rows", bson.D(bson.IDKey, i)); err != nil {
				t.Fatal(err)
			}
		}
		return srv, clk, db
	}

	t.Run("FindCursor drained", func(t *testing.T) {
		srv, clk, db := open(t)
		cur, err := db.FindCursor("rows", nil, storage.FindOptions{BatchSize: 10})
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.OpDurations("find").Count; got != 0 {
			t.Fatalf("find counted before the cursor was drained (%d)", got)
		}
		clk.Advance(pause)
		if _, err := cur.All(); err != nil {
			t.Fatal(err)
		}
		find := srv.OpDurations("find")
		if find.Count != 1 {
			t.Fatalf("expected 1 find after drain, got %d", find.Count)
		}
		if time.Duration(find.Sum) != pause {
			t.Fatalf("find duration %v does not span the drain (want exactly %v)", time.Duration(find.Sum), pause)
		}
	})

	// Closing an undrained AggregateCursor must record exactly once too.
	t.Run("AggregateCursor closed twice", func(t *testing.T) {
		srv, clk, db := open(t)
		it, err := db.AggregateCursor("rows", []*bson.Doc{bson.D("$match", bson.D(bson.IDKey, bson.D("$lt", 10)))})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := it.Next(); !ok {
			t.Fatal("expected a first document")
		}
		if got := srv.OpDurations("aggregate").Count; got != 0 {
			t.Fatalf("aggregate counted before the cursor was closed (%d)", got)
		}
		clk.Advance(pause)
		it.Close()
		it.Close()
		agg := srv.OpDurations("aggregate")
		if agg.Count != 1 || time.Duration(agg.Sum) != pause {
			t.Fatalf("aggregate after two closes: count %d, duration %v; want 1, %v", agg.Count, time.Duration(agg.Sum), pause)
		}
	})
}

// TestBulkBatchIsOneObservation checks the mongod-level bulk surface: a
// mixed batch is one bulkWrite observation whatever its ops' kinds and
// failures, timed until its PendingBulk's Wait, and InsertMany rides the
// same path — one more batch, not one per document.
func TestBulkBatchIsOneObservation(t *testing.T) {
	s := NewServer(Options{})
	clk := &testClock{}
	s.clock = clk.Now
	db := s.Database("db")

	res := db.BulkWrite("c", []storage.WriteOp{
		storage.InsertWriteOp(bson.D(bson.IDKey, 1)),
		storage.InsertWriteOp(bson.D(bson.IDKey, 1)), // duplicate
		storage.UpdateWriteOp(query.UpdateSpec{Query: bson.D(bson.IDKey, 1), Update: bson.D("$set", bson.D("v", 2))}),
		storage.DeleteWriteOp(bson.D(bson.IDKey, 99), false),
	}, storage.BulkOptions{})
	if res.Inserted != 1 || res.Modified != 1 || res.Deleted != 0 || len(res.Errors) != 1 {
		t.Fatalf("result = %+v", res)
	}
	want := map[string]int64{"bulkWrite": 1}
	check := func(when string) {
		t.Helper()
		for op, n := range opCounts(s) {
			if n != want[op] {
				t.Fatalf("%s: %s count = %d, want %d", when, op, n, want[op])
			}
		}
	}
	check("after a four-op batch")

	// An applied batch is not recorded until its acknowledgement is waited
	// for, and its duration runs to that wait.
	_, pending := db.BulkApply("c", storage.InsertOps([]*bson.Doc{bson.D(bson.IDKey, 2), bson.D(bson.IDKey, 3)}), storage.BulkOptions{Ordered: true})
	check("before the batch's Wait")
	const wait = 5 * time.Millisecond
	clk.Advance(wait)
	if err := pending.Wait(); err != nil {
		t.Fatal(err)
	}
	want["bulkWrite"] = 2
	check("after the batch's Wait")
	if got := time.Duration(s.OpDurations("bulkWrite").Sum); got != wait {
		t.Fatalf("bulkWrite durations sum to %v, want %v", got, wait)
	}

	docs := make([]*bson.Doc, 10)
	for i := range docs {
		docs[i] = bson.D(bson.IDKey, 100+i)
	}
	if _, err := db.InsertMany("c", docs); err != nil {
		t.Fatal(err)
	}
	want["bulkWrite"] = 3
	check("after InsertMany of 10")
}
