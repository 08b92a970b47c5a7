package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment files: the log is a sequence of fixed-header files named by the
// first LSN they hold ("wal-%016d.log"). A closed segment i therefore covers
// the LSN range [first_i, first_{i+1}-1], which is what checkpoint pruning
// needs to decide whether a whole file is obsolete.

const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	segmentVersion = 1
)

var segmentMagic = [4]byte{'D', 'W', 'A', 'L'}

// segmentHeaderSize is the byte length of the segment file header:
// 4-byte magic plus a 4-byte little-endian format version.
const segmentHeaderSize = 8

func segmentName(firstLSN int64) string {
	return fmt.Sprintf("%s%016d%s", segmentPrefix, firstLSN, segmentSuffix)
}

func encodeSegmentHeader() []byte {
	hdr := make([]byte, segmentHeaderSize)
	copy(hdr, segmentMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], segmentVersion)
	return hdr
}

func checkSegmentHeader(data []byte) error {
	if len(data) < segmentHeaderSize {
		return fmt.Errorf("wal: segment header truncated (%d bytes)", len(data))
	}
	if [4]byte(data[:4]) != segmentMagic {
		return fmt.Errorf("wal: bad segment magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != segmentVersion {
		return fmt.Errorf("wal: unsupported segment version %d", v)
	}
	return nil
}

// segmentInfo is one discovered segment file.
type segmentInfo struct {
	path     string
	firstLSN int64
}

// listSegments returns the segment files of dir sorted by first LSN.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		numPart := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
		first, err := strconv.ParseInt(numPart, 10, 64)
		if err != nil || first <= 0 {
			return nil, fmt.Errorf("wal: unrecognized segment file name %q", name)
		}
		segs = append(segs, segmentInfo{path: filepath.Join(dir, name), firstLSN: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// readSegmentRecords reads every complete record of one segment file,
// calling fn for each. It returns the number of bytes occupied by the header
// plus all complete records (the truncation point for a torn tail), the LSN
// of the last complete record (0 when none), and whether the segment ended
// with a torn record.
func readSegmentRecords(path string, fn func(*Record) error) (goodBytes int64, lastLSN int64, torn bool, err error) {
	return scanSegment(path, func(data []byte) (int64, []byte, error) {
		rec, rest, err := DecodeRecord(data)
		if err != nil {
			return 0, nil, ErrTornRecord
		}
		return rec.LSN, rest, fn(rec)
	})
}

// scanSegmentFrames finds the end of one segment file from its frames alone
// — length, checksum and the LSN at its fixed offset — without decoding any
// payload. It is Open's tail scan: recovery decodes every record once, in
// Replay, not once to find the end of the log and again to apply it. The
// results mean what readSegmentRecords' do.
func scanSegmentFrames(path string) (goodBytes int64, lastLSN int64, torn bool, err error) {
	return scanSegment(path, func(data []byte) (int64, []byte, error) {
		lsn, rest, ok := frameLSN(data)
		if !ok {
			return 0, nil, ErrTornRecord
		}
		return lsn, rest, nil
	})
}

// scanSegment walks one segment file frame by frame. next consumes the frame
// at the front of its argument, returning the frame's LSN and the bytes after
// it; ErrTornRecord ends the walk as a torn tail, any other error aborts it.
func scanSegment(path string, next func(data []byte) (lsn int64, rest []byte, err error)) (goodBytes int64, lastLSN int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, err
	}
	if err := checkSegmentHeader(data); err != nil {
		// A header shorter than segmentHeaderSize can only happen when the
		// process died while creating the segment: treat it as fully torn.
		if len(data) < segmentHeaderSize {
			return 0, 0, true, nil
		}
		return 0, 0, false, err
	}
	rest := data[segmentHeaderSize:]
	goodBytes = segmentHeaderSize
	for len(rest) > 0 {
		lsn, after, err := next(rest)
		if errors.Is(err, ErrTornRecord) {
			return goodBytes, lastLSN, true, nil
		}
		if err != nil {
			return goodBytes, lastLSN, false, err
		}
		goodBytes += int64(len(rest) - len(after))
		lastLSN = lsn
		rest = after
	}
	return goodBytes, lastLSN, false, nil
}

// SegmentFile describes one discovered segment file: its path and the LSN of
// the first record it holds. Change stream resume walks the listing to find
// the segments overlapping a resume token's position.
type SegmentFile struct {
	Path     string
	FirstLSN int64
}

// SegmentFiles lists the segment files of a log directory in first-LSN order.
func SegmentFiles(dir string) ([]SegmentFile, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentFile, len(segs))
	for i, s := range segs {
		out[i] = SegmentFile{Path: s.path, FirstLSN: s.firstLSN}
	}
	return out, nil
}

// ReadSegmentFile reads every complete record of one segment file in LSN
// order. A torn tail (partial frame from a crash, or from reading the active
// segment concurrently with an in-flight flush) silently ends the segment,
// exactly as Open's recovery scan treats it; callers that tail the live log
// bound their reads to LSNs known flushed, so a torn tail is always beyond
// what they need.
func ReadSegmentFile(path string) ([]*Record, error) {
	var out []*Record
	_, _, _, err := readSegmentRecords(path, func(r *Record) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SyncDir fsyncs a directory so renames and removals inside it are durable.
// The checkpoint machinery shares it for its own directory shuffling.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
