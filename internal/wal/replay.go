package wal

import (
	"errors"
	"fmt"
)

// Replay's hand-off from its decoder to fn: records travel in chunks of
// replayChunk, at most replayQueue chunks ahead of fn. A chunk per hand-off
// keeps the two goroutines from meeting on every record; the queue bound
// keeps what is decoded but not yet applied a few hundred records, however
// long the log.
const (
	replayChunk = 64
	replayQueue = 4
)

// errReplayStopped ends the decoder when fn has stopped the replay.
var errReplayStopped = errors.New("wal: replay stopped")

// Replay iterates every complete record in the log directory in LSN order,
// calling fn for each on the caller's goroutine. It reads the segment files
// directly and may run while a WAL is open on the same directory, as long as
// no appends are in flight (the recovery sequence opens the WAL — which
// truncates any torn tail — then replays, then starts accepting writes).
//
// The records are read and decoded on a goroutine of Replay's own, ahead of
// fn by a bounded queue, so decoding the log and applying it run on two
// cores. Whether the replay ends or fn stops it, Replay returns only after
// that goroutine's last act, closing the queue: nothing of it outlives the
// call.
//
// A torn record is tolerated only at the tail of the newest segment, where
// it marks the crash point; anywhere else it is corruption and an error,
// returned once fn has had every record before it. Replay stops early when
// fn returns an error, and returns that error.
func Replay(dir string, fn func(*Record) error) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	chunks := make(chan []*Record, replayQueue)
	stop := make(chan struct{})
	var decodeErr error // written before chunks is closed, read after
	go func() {
		defer close(chunks)
		chunk := make([]*Record, 0, replayChunk)
		send := func() error {
			select {
			case chunks <- chunk:
				chunk = make([]*Record, 0, replayChunk)
				return nil
			case <-stop:
				return errReplayStopped
			}
		}
		err := decodeSegments(segs, func(r *Record) error {
			if chunk = append(chunk, r); len(chunk) == replayChunk {
				return send()
			}
			return nil
		})
		// The records before the end of the log, or before a corrupt one,
		// still go to fn.
		if err != errReplayStopped && len(chunk) > 0 && send() != nil {
			return // fn stopped the replay: its error is Replay's
		}
		decodeErr = err
	}()
	defer func() {
		// However fn left the loop below — the log's end, an error, a
		// panic — the decoder sees stop and closes chunks; the drain waits
		// for that.
		close(stop)
		for range chunks {
		}
	}()
	for chunk := range chunks {
		for _, r := range chunk {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return decodeErr
}

// decodeSegments reads the records of segs in LSN order, calling emit for
// each, and checks that LSNs ascend and that a torn record ends only the
// newest segment.
func decodeSegments(segs []segmentInfo, emit func(*Record) error) error {
	var lastLSN int64
	for i, seg := range segs {
		_, _, torn, err := readSegmentRecords(seg.path, func(r *Record) error {
			if r.LSN <= lastLSN {
				return fmt.Errorf("wal: record LSN %d out of order after %d in %s", r.LSN, lastLSN, seg.path)
			}
			lastLSN = r.LSN
			return emit(r)
		})
		if err != nil {
			return err
		}
		if torn && i != len(segs)-1 {
			return fmt.Errorf("wal: corrupt record mid-log in %s (torn records are only legal at the tail)", seg.path)
		}
	}
	return nil
}

// ReadAll replays the whole log into memory, returning the records in LSN
// order. It is a convenience for tests and for oplog loading.
func ReadAll(dir string) ([]*Record, error) {
	var out []*Record
	err := Replay(dir, func(r *Record) error {
		out = append(out, r)
		return nil
	})
	return out, err
}
