// Package wal implements the durability subsystem: a write-ahead log of
// length-prefixed, CRC32C-checksummed records in rotating segment files,
// with a configurable sync policy and group commit that coalesces concurrent
// acknowledgement waits into a single fsync.
//
// The log stores logical write batches (see Record): the storage engine
// appends a record before applying a batch, and acknowledgement of the write
// waits for the record to be durable under the configured policy. Recovery
// is a replay of the records newer than the last checkpoint; a torn tail
// (partial record from a crash mid-append) is detected by checksum and
// truncated on Open so every surviving record is intact.
package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"docstore/internal/metrics"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

// Sync policies.
const (
	// SyncGroupCommit makes acknowledgement waits join a group commit: one
	// fsync covers every record appended before it, so concurrent writers
	// share the disk flush. This is the default.
	SyncGroupCommit SyncPolicy = iota
	// SyncAlways performs one fsync per acknowledged write: the naive
	// durable policy group commit is measured against.
	SyncAlways
	// SyncNone never fsyncs on the write path; data reaches disk on segment
	// rotation and Close, or when a commit is waited on with journaled
	// acknowledgement (writeConcern j: true), which forces a sync.
	SyncNone
)

// String names the policy (the accepted spellings of ParseSyncPolicy).
func (p SyncPolicy) String() string {
	switch p {
	case SyncGroupCommit:
		return "group"
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("syncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the flag spelling of a sync policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "group":
		return SyncGroupCommit, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync policy %q (want always, group or none)", s)
	}
}

// DefaultSegmentMaxBytes is the rotation threshold for segment files.
const DefaultSegmentMaxBytes = 64 << 20

// Options configures a log.
type Options struct {
	// Dir is the directory holding the segment files. It is created when
	// absent.
	Dir string
	// Sync is the sync policy; the zero value is SyncGroupCommit.
	Sync SyncPolicy
	// GroupCommitInterval is an optional extra coalescing window: the group
	// commit leader waits this long before flushing so more writers can join
	// the batch. Zero (the default) flushes immediately; the batch then
	// consists of whatever accumulated during the previous fsync, which is
	// the classic group-commit behaviour.
	GroupCommitInterval time.Duration
	// SegmentMaxBytes rotates the active segment when it grows past this
	// size. Zero uses DefaultSegmentMaxBytes.
	SegmentMaxBytes int64
}

// WAL is an append-only write-ahead log over segment files in a directory.
// Append is safe for concurrent use.
type WAL struct {
	opts Options

	mu        sync.Mutex
	f         *os.File
	bw        *bufio.Writer
	size      int64 // bytes written to the active segment (including header)
	lastLSN   int64 // highest assigned LSN
	syncedLSN int64 // highest LSN known durable
	closed    bool
	// failed poisons the log after a partial buffered write: the bufio
	// buffer may hold a truncated frame, and any later append would land
	// after the damage and be silently discarded as a torn tail on the
	// next recovery. Fail-stop is the only honest mode.
	failed error

	appends atomic.Int64 // records appended
	syncs   atomic.Int64 // fsyncs issued

	// fsyncHist times each write-path fsync; batchHist records how many
	// records each fsync made durable (the group-commit batch size). Both
	// are owned here — the wal package stays dependency-light — and the
	// durability layer attaches them to its metrics registry so /metrics
	// exports them as docstore_wal_* families.
	fsyncHist metrics.Histogram
	batchHist metrics.Histogram

	gc groupCommitter
}

// Stats reports append/fsync counters; appends divided by syncs is the
// effective group-commit batch size.
type Stats struct {
	Appends int64
	Syncs   int64
}

// Stats returns the current counters.
func (w *WAL) Stats() Stats {
	return Stats{Appends: w.appends.Load(), Syncs: w.syncs.Load()}
}

// FsyncHistogram returns the write-path fsync latency histogram. The WAL
// owns the histogram; callers with a metrics registry attach it via
// RegisterHistogramSeries so it appears on /metrics.
func (w *WAL) FsyncHistogram() *metrics.Histogram { return &w.fsyncHist }

// BatchHistogram returns the group-commit batch-size histogram: one
// observation per write-path fsync, valued at the number of records that
// fsync made durable. Values are raw counts, not durations.
func (w *WAL) BatchHistogram() *metrics.Histogram { return &w.batchHist }

// FsyncDurations snapshots the fsync latency histogram.
func (w *WAL) FsyncDurations() metrics.HistogramSnapshot { return w.fsyncHist.Snapshot() }

// BatchSizes snapshots the group-commit batch-size histogram.
func (w *WAL) BatchSizes() metrics.HistogramSnapshot { return w.batchHist.Snapshot() }

// Open opens (or creates) the log in opts.Dir. When existing segments are
// found, the newest one is scanned and a torn tail — a partial or
// checksum-failing record left by a crash mid-append — is truncated away, so
// subsequent appends extend a clean log. Records already in the log are not
// interpreted here; use Replay.
func Open(opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = DefaultSegmentMaxBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{opts: opts}
	w.gc.w = w
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		w.lastLSN = 0
		if err := w.openSegmentLocked(1); err != nil {
			return nil, err
		}
		w.syncedLSN = 0
		return w, nil
	}
	// Scan the newest segment's frames to find the end of the log and
	// truncate any torn tail in place. Older segments are immutable (they
	// were fsynced on rotation) and are only read again by Replay.
	last := segs[len(segs)-1]
	goodBytes, lastLSN, torn, err := scanSegmentFrames(last.path)
	if err != nil {
		return nil, err
	}
	if lastLSN == 0 {
		// Empty (or fully torn) segment: its name records the next LSN.
		lastLSN = last.firstLSN - 1
	}
	if torn {
		if err := os.Truncate(last.path, goodBytes); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", last.path, err)
		}
	}
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if goodBytes < segmentHeaderSize {
		// The crash happened while the header itself was being written;
		// rewrite it so the segment is well-formed.
		if _, err := f.Write(encodeSegmentHeader()[goodBytes:]); err != nil {
			f.Close()
			return nil, err
		}
		goodBytes = segmentHeaderSize
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.size = goodBytes
	w.lastLSN = lastLSN
	w.syncedLSN = lastLSN
	return w, nil
}

// openSegmentLocked creates the segment whose first record will be firstLSN
// and makes it the active file. The caller holds w.mu (or is Open).
func (w *WAL) openSegmentLocked(firstLSN int64) error {
	path := filepath.Join(w.opts.Dir, segmentName(firstLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeSegmentHeader()); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.size = segmentHeaderSize
	return nil
}

// rotateLocked closes the active segment (flushing and fsyncing it, so
// closed segments are always durable and intact) and starts the one whose
// first record will be nextFirstLSN. Everything before that record is in the
// just-synced file, which is what makes closed segments prunable as a unit.
func (w *WAL) rotateLocked(nextFirstLSN int64) error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if nextFirstLSN-1 > w.syncedLSN {
		w.syncedLSN = nextFirstLSN - 1
	}
	return w.openSegmentLocked(nextFirstLSN)
}

// Append assigns the record the next LSN and buffers it into the active
// segment. The record is NOT durable when Append returns: the caller holds
// the returned Commit and waits on it after releasing whatever lock ordered
// the append — that is what lets group commit coalesce concurrent writers.
func (w *WAL) Append(r *Record) (*Commit, error) {
	// Marshal outside the lock — encoding a big batch is the expensive part
	// of an append, and the WAL is shared by every collection of a server.
	// The LSN is not known yet; it is a fixed-offset field patched into the
	// frame once the append is ordered.
	frame := EncodeRecord(r)
	if len(frame)-frameHeaderSize > MaxRecordSize {
		// DecodeRecord treats over-limit length prefixes as corruption, so
		// an oversized record must be rejected here — before it is written,
		// let alone acknowledged — or recovery would truncate it away.
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d byte limit", len(frame)-frameHeaderSize, MaxRecordSize)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("wal: append to closed log")
	}
	if w.failed != nil {
		return nil, fmt.Errorf("wal: log failed: %w", w.failed)
	}
	w.lastLSN++
	r.LSN = w.lastLSN
	if !patchFrameLSN(frame, r.LSN) {
		// Unexpected encoder layout: fall back to re-encoding with the
		// real LSN under the lock. Same bytes on disk, just slower.
		frame = EncodeRecord(r)
	}
	if w.size > segmentHeaderSize && w.size+int64(len(frame)) > w.opts.SegmentMaxBytes {
		// The record being appended becomes the first of the new segment.
		if err := w.rotateLocked(r.LSN); err != nil {
			w.lastLSN--
			return nil, err
		}
	}
	if _, err := w.bw.Write(frame); err != nil {
		// The buffer may now hold a partial frame; appending anything after
		// it would be discarded as a torn tail on recovery. Poison the log.
		w.lastLSN--
		w.failed = err
		return nil, fmt.Errorf("wal: append failed, log poisoned: %w", err)
	}
	w.size += int64(len(frame))
	w.appends.Add(1)
	return &Commit{w: w, lsn: r.LSN}, nil
}

// LastLSN returns the highest assigned LSN.
func (w *WAL) LastLSN() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN
}

// SyncedLSN returns the highest LSN known to be durable.
func (w *WAL) SyncedLSN() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncedLSN
}

// Sync flushes and fsyncs everything appended so far. It skips the disk
// flush when nothing new was appended since the last sync.
func (w *WAL) Sync() error {
	w.mu.Lock()
	skip := !w.closed && w.syncedLSN == w.lastLSN
	w.mu.Unlock()
	if skip {
		return nil
	}
	return w.flushAndSync()
}

// syncAlways is the per-write cost of SyncAlways. Unlike Sync it never skips,
// because the policy's contract is one fsync per acknowledged write.
func (w *WAL) syncAlways() error { return w.flushAndSync() }

// flushAndSync flushes buffered frames under the append lock, then fsyncs
// the segment file WITHOUT holding it. Appends therefore keep filling the
// next group-commit batch while the disk works — this is what makes group
// commit amortize: batch size grows with whatever arrives during the
// in-flight fsync.
//
// A rotation or Close can close the captured file mid-fsync; both fsync
// everything before closing, so a failed Sync whose target is already
// covered by syncedLSN is a success.
func (w *WAL) flushAndSync() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("wal: sync on closed log")
	}
	if err := w.bw.Flush(); err != nil {
		w.mu.Unlock()
		return err
	}
	target := w.lastLSN
	prevSynced := w.syncedLSN
	f := w.f
	w.mu.Unlock()

	w.syncs.Add(1)
	start := time.Now()
	err := f.Sync()
	w.fsyncHist.Observe(time.Since(start))
	if batch := target - prevSynced; batch > 0 {
		// How many records this fsync made durable: the group-commit batch.
		// Concurrent fsyncs can both claim the same records (each observed
		// its own prevSynced), which slightly overstates batches under
		// contention — acceptable for a coalescing-health gauge.
		w.batchHist.Observe(time.Duration(batch))
	}

	w.mu.Lock()
	if err == nil && target > w.syncedLSN {
		w.syncedLSN = target
	}
	covered := w.syncedLSN >= target
	w.mu.Unlock()
	if err != nil && !covered {
		return err
	}
	return nil
}

// Flush writes buffered frames through to the active segment file without
// fsyncing. After Flush returns, every appended record is readable from the
// segment files (the OS page cache serves reads of unsynced data); change
// stream resume uses this to replay history from disk without paying for a
// disk flush. A flush on a closed log is a no-op: Close already flushed.
func (w *WAL) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	if w.failed != nil {
		return fmt.Errorf("wal: log failed: %w", w.failed)
	}
	return w.bw.Flush()
}

// Close flushes, fsyncs and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncedLSN = w.lastLSN
	return w.f.Close()
}

// Prune removes closed segments whose every record has LSN <= upTo, i.e.
// segments fully covered by a checkpoint. The active segment is never
// removed. It returns the number of files removed.
func (w *WAL) Prune(upTo int64) (int, error) {
	// Flush so the active segment's name ordering on disk is consistent with
	// what listSegments sees; removal itself does not touch the active file.
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: prune on closed log")
	}
	segs, err := listSegments(w.opts.Dir)
	if err != nil {
		w.mu.Unlock()
		return 0, err
	}
	var victims []string
	for i := 0; i+1 < len(segs); i++ {
		// Closed segment i covers [first_i, first_{i+1}-1].
		if segs[i+1].firstLSN-1 <= upTo {
			victims = append(victims, segs[i].path)
		}
	}
	w.mu.Unlock()
	removed := 0
	for _, path := range victims {
		if err := os.Remove(path); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		if err := SyncDir(w.opts.Dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Dir returns the directory holding the segment files.
func (w *WAL) Dir() string { return w.opts.Dir }

// Commit is the handle an appender waits on for durability. It implements
// the storage engine's CommitWaiter.
type Commit struct {
	w   *WAL
	lsn int64
}

// LSN returns the log sequence number assigned to the appended record.
func (c *Commit) LSN() int64 { return c.lsn }

// Wait blocks until the record is durable under the log's sync policy:
//
//   - SyncAlways: one flush+fsync per call.
//   - SyncGroupCommit: join the group commit; one fsync covers every record
//     appended before it ran.
//   - SyncNone: returns immediately — unless journaled is true, which
//     forces a sync (the writeConcern {j: true} escalation).
//
// journaled additionally forces the group-commit path to have synced this
// record rather than merely scheduled it, which it does anyway; the flag
// only changes behaviour under SyncNone.
func (c *Commit) Wait(journaled bool) error {
	switch c.w.opts.Sync {
	case SyncAlways:
		return c.w.syncAlways()
	case SyncGroupCommit:
		return c.w.gc.wait(c.lsn)
	default: // SyncNone
		if journaled {
			return c.w.Sync()
		}
		return nil
	}
}
