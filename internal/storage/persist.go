package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"docstore/internal/bson"
)

// Snapshot persistence: a collection is written as a stream of
// length-prefixed binary documents preceded by a small header. This is the
// storage analogue of a data directory; the experiment harness uses it to
// avoid regenerating datasets between runs, and checkpoints stream it
// through Snapshot.WriteData (see snapshot.go) so the disk write happens
// entirely outside the write path's critical section.

var snapshotMagic = [4]byte{'D', 'S', 'C', '1'}

// snapshotLoadBatch is how many documents ReadSnapshot inserts per bulk write.
const snapshotLoadBatch = 1024

// SnapshotInfo describes what one snapshot captured.
type SnapshotInfo struct {
	// Count is the number of documents written.
	Count int
	// LastLSN is the journal watermark of the snapshot's version: every
	// mutation at or below it is contained in the data, every one above it
	// is not. Checkpoints pair it with the snapshot so recovery replays
	// exactly the log records the snapshot does not already contain.
	LastLSN int64
	// Indexes are the secondary index definitions live at the snapshot's
	// version. The snapshot stream itself carries only documents;
	// checkpoints persist these definitions in their manifest and recovery
	// rebuilds the trees by backfilling.
	Indexes []IndexMeta
}

// IndexMeta is one secondary index definition.
type IndexMeta struct {
	Spec   *bson.Doc
	Unique bool
}

// WriteSnapshot writes every live document of the current committed version
// to w. It pins a snapshot for the duration of the write and releases it.
func (c *Collection) WriteSnapshot(w io.Writer) error {
	s := c.Snapshot()
	defer s.Release()
	return s.WriteData(w)
}

// ReadSnapshot loads documents from r into the collection, appending to its
// current contents.
func (c *Collection) ReadSnapshot(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("storage: reading snapshot header: %w", err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("storage: bad snapshot magic %q", magic[:])
	}
	countBuf := make([]byte, 8)
	if _, err := io.ReadFull(br, countBuf); err != nil {
		return fmt.Errorf("storage: reading snapshot count: %w", err)
	}
	count := binary.LittleEndian.Uint64(countBuf)
	// Load in batches: a batch is one published version and one copy-on-write
	// era, so within it the index trees mutate in place.
	batch := make([]*bson.Doc, 0, snapshotLoadBatch)
	for i := uint64(0); i < count; i++ {
		doc, err := readLengthPrefixedDoc(br)
		if err != nil {
			return fmt.Errorf("storage: reading snapshot document %d: %w", i, err)
		}
		batch = append(batch, doc)
		if len(batch) == snapshotLoadBatch || i == count-1 {
			res := c.BulkWrite(InsertOps(batch), BulkOptions{Ordered: true})
			if err := res.FirstError(); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	// The header count must agree exactly with the stream: trailing data
	// means the snapshot was written with a count/scan mismatch (or was
	// corrupted) and cannot be trusted.
	if _, err := br.ReadByte(); err != io.EOF {
		return fmt.Errorf("storage: snapshot contains data beyond its header count of %d documents", count)
	}
	return nil
}

func readLengthPrefixedDoc(br *bufio.Reader) (*bson.Doc, error) {
	lenBuf := make([]byte, 4)
	if _, err := io.ReadFull(br, lenBuf); err != nil {
		return nil, err
	}
	length := binary.LittleEndian.Uint32(lenBuf)
	if length < 5 || length > bson.MaxDocumentSize+1024 {
		return nil, fmt.Errorf("invalid document length %d", length)
	}
	buf := make([]byte, length)
	copy(buf, lenBuf)
	if _, err := io.ReadFull(br, buf[4:]); err != nil {
		return nil, err
	}
	return bson.Unmarshal(buf)
}

// SaveFile writes the snapshot to a file path.
func (c *Collection) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.WriteSnapshot(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFile reads a snapshot file into the collection.
func (c *Collection) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.ReadSnapshot(f)
}
