package wal

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"
)

// multiSegmentLog appends n single-insert batches to a log in dir whose
// segments rotate every few kilobytes, and returns its segments.
func multiSegmentLog(t *testing.T, dir string, n int) []segmentInfo {
	t.Helper()
	w := mustOpen(t, Options{Dir: dir, Sync: SyncNone, SegmentMaxBytes: 4 << 10})
	for i := 0; i < n; i++ {
		appendWait(t, w, batchRecord("c", i), false)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// settledGoroutines waits for the goroutine count to come back to want and
// reports whether it did: a goroutine that has closed its last channel may
// take a moment more to be gone.
func settledGoroutines(want int) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= want {
			return true
		}
	}
	return false
}

// TestReplayStopsEarly stops a replay of a multi-segment log at records
// spread over it — the first, one inside a hand-off chunk, the last of a
// chunk, one in a later segment, the last of the log — and requires each
// time that fn saw exactly the records up to the stop, in LSN order, that
// Replay returned fn's own error, and that the decoding goroutine is gone
// when Replay has returned, as it is after a panic in fn. A replay that runs
// to the end sees every record.
func TestReplayStopsEarly(t *testing.T) {
	const n = 5*replayChunk*replayQueue + 17
	dir := t.TempDir()
	if segs := multiSegmentLog(t, dir, n); len(segs) < 4 {
		t.Fatalf("the log has %d segments, want several", len(segs))
	}
	errStop := errors.New("stop here")
	base := runtime.NumGoroutine()
	for _, stopAt := range []int64{1, replayChunk / 2, replayChunk, replayChunk*replayQueue + 3, 3 * n / 4, n, n + 1} {
		var seen int64
		err := Replay(dir, func(r *Record) error {
			seen++
			if r.LSN != seen {
				t.Fatalf("record %d has LSN %d", seen, r.LSN)
			}
			if r.LSN == stopAt {
				return errStop
			}
			return nil
		})
		switch {
		case stopAt > n:
			if err != nil || seen != n {
				t.Fatalf("a full replay saw %d of %d records and returned %v", seen, n, err)
			}
		case !errors.Is(err, errStop):
			t.Fatalf("stopping at %d: Replay returned %v, want fn's error", stopAt, err)
		case seen != stopAt:
			t.Fatalf("stopping at %d: fn saw %d records", stopAt, seen)
		}
		if !settledGoroutines(base) {
			t.Fatalf("stopping at %d: %d goroutines after Replay returned, %d before", stopAt, runtime.NumGoroutine(), base)
		}
	}
	// A panic in fn stops the decoder too.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fn's panic did not reach Replay's caller")
			}
		}()
		Replay(dir, func(r *Record) error {
			if r.LSN == replayChunk+1 {
				panic("fn fails")
			}
			return nil
		})
	}()
	if !settledGoroutines(base) {
		t.Fatalf("after a panic in fn: %d goroutines, %d before", runtime.NumGoroutine(), base)
	}
}

// TestReplayDeliversRecordsBeforeCorruption corrupts the last record of the
// first segment: Replay hands fn every record before it, then fails, and
// leaves no goroutine behind.
func TestReplayDeliversRecordsBeforeCorruption(t *testing.T) {
	dir := t.TempDir()
	segs := multiSegmentLog(t, dir, 3*replayChunk)
	if len(segs) < 2 {
		t.Fatalf("the log has %d segments, want several", len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := segs[1].firstLSN - 2 // the records of segment 0 but its last
	base := runtime.NumGoroutine()
	var seen int64
	err = Replay(dir, func(r *Record) error {
		seen++
		return nil
	})
	if err == nil {
		t.Fatal("mid-log corruption must fail replay")
	}
	if seen != before {
		t.Fatalf("fn saw %d records before the corrupt one, want %d", seen, before)
	}
	if !settledGoroutines(base) {
		t.Fatalf("%d goroutines after Replay returned, %d before", runtime.NumGoroutine(), base)
	}
}
