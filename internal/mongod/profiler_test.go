package mongod

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"docstore/internal/bson"
)

// testClock is the repo's injectable-clock pattern: time advances only when
// the test says so.
type testClock struct {
	ns atomic.Int64
}

func (c *testClock) Now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *testClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

func TestProfilerRingOverwritesOldestInOrder(t *testing.T) {
	clk := &testClock{}
	s := NewServer(Options{Name: "prof"})
	s.clock = clk.Now
	db := s.Database("testdb")

	// Fill well past capacity; each insert profiles one entry (threshold 0
	// records everything).
	const total = profileCap + 500
	for i := 0; i < total; i++ {
		clk.Advance(time.Microsecond)
		if _, err := db.Insert("c", bson.D("_id", i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	entries := s.Profile()
	if len(entries) != profileCap {
		t.Fatalf("ring holds %d entries, want %d", len(entries), profileCap)
	}
	// The ring must hold the most recent profileCap entries in insertion
	// order: starts strictly increasing, ending at the last op's start.
	for i := 1; i < len(entries); i++ {
		if !entries[i].At.After(entries[i-1].At) {
			t.Fatalf("entries out of order at %d: %v !after %v", i, entries[i].At, entries[i-1].At)
		}
	}
	wantLast := time.Unix(0, int64(total)*int64(time.Microsecond))
	if !entries[len(entries)-1].At.Equal(wantLast) {
		t.Fatalf("newest entry at %v, want %v", entries[len(entries)-1].At, wantLast)
	}
}

func TestProfilerResetClearsRingState(t *testing.T) {
	s := NewServer(Options{Name: "prof"})
	db := s.Database("testdb")
	for i := 0; i < profileCap+10; i++ {
		db.Insert("c", bson.D("_id", i))
	}
	s.ResetProfile()
	if got := s.Profile(); len(got) != 0 {
		t.Fatalf("profile after reset has %d entries", len(got))
	}
	// The ring must keep recording correctly after a reset.
	for i := 0; i < 5; i++ {
		db.Insert("c", bson.D("_id", fmt.Sprintf("post-%d", i)))
	}
	if got := s.Profile(); len(got) != 5 {
		t.Fatalf("profile after reset+5 inserts has %d entries", len(got))
	}
}

// TestRecordOpAllocatesNothing guards the cost every mongod operation pays to
// be counted: an op below the slow-op threshold lands in its counter and
// histogram without allocating.
func TestRecordOpAllocatesNothing(t *testing.T) {
	s := NewServer(Options{Name: "prof", SlowOpThreshold: time.Hour})
	db := s.Database("testdb")
	start := time.Now()
	got := testing.AllocsPerRun(1000, func() {
		db.record(ProfileEntry{Op: "find", Collection: "c", At: start}, nil)
	})
	if got != 0 {
		t.Errorf("recording a fast op allocates %.0f times, want 0", got)
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
			s := NewServer(Options{Name: "ops", SlowOpThreshold: time.Hour})
			s.Database("testdb").record(ProfileEntry{Op: tc.op, Collection: "c", At: time.Now()}, nil)

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

func TestSlowOpThresholdGatesRingNotHistograms(t *testing.T) {
	clk := &testClock{}
	s := NewServer(Options{Name: "prof", SlowOpThreshold: 10 * time.Millisecond})
	s.clock = clk.Now
	db := s.Database("testdb")

	// A fast op: below threshold, so the ring stays empty — but the
	// always-on histogram still records it.
	db.Insert("c", bson.D("_id", 1))
	if got := s.Profile(); len(got) != 0 {
		t.Fatalf("fast op profiled: %+v", got)
	}
	if snap := s.OpDurations("insert"); snap.Count != 1 {
		t.Fatalf("insert histogram count = %d, want 1", snap.Count)
	}

	// A slow op: the profiler keeps it. The injectable clock makes the op
	// "slow" without sleeping; Insert reads the clock at start and finish,
	// so advancing between requires the op to take a step — use a clock
	// that advances on every read instead.
	s.clock = func() time.Time { clk.Advance(10 * time.Millisecond); return clk.Now() }
	db.Insert("c", bson.D("_id", 2))
	entries := s.Profile()
	if len(entries) != 1 || entries[0].Op != "insert" {
		t.Fatalf("slow op not profiled: %+v", entries)
	}
	if snap := s.OpDurations("insert"); snap.Count != 2 {
		t.Fatalf("insert histogram count = %d, want 2", snap.Count)
	}
}
