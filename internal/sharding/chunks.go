package sharding

import (
	"fmt"
	"sort"
	"sync"

	"docstore/internal/bson"
)

// Chunk is a contiguous, non-overlapping range of shard-key routing values
// [Min, Max) assigned to one shard. The special unbounded ends are
// represented by HasMin/HasMax being false.
type Chunk struct {
	ID    int
	Shard string
	// [Min, Max) in routing-value space.
	Min, Max       any
	HasMin, HasMax bool
	// Accounting used for splitting decisions.
	DocCount  int
	SizeBytes int
	// Jumbo marks a chunk that exceeded the size limit but cannot be split
	// because all its documents share one shard-key value (§2.1.3.3).
	Jumbo bool
	// values tracks the routing values present in the chunk so that split
	// points can be chosen; bounded sample to limit memory.
	values []any
}

// String renders the chunk range for diagnostics.
func (c *Chunk) String() string {
	min, max := "-inf", "+inf"
	if c.HasMin {
		min = fmt.Sprintf("%v", c.Min)
	}
	if c.HasMax {
		max = fmt.Sprintf("%v", c.Max)
	}
	return fmt.Sprintf("chunk %d [%s, %s) on %s (%d docs, %d bytes)", c.ID, min, max, c.Shard, c.DocCount, c.SizeBytes)
}

// CollectionMetadata is the config-server record for one sharded collection:
// its shard key and the chunk → shard mapping.
type CollectionMetadata struct {
	Namespace string // "db.collection"
	Key       ShardKey

	mu             sync.RWMutex
	chunks         []*Chunk // ordered by Min
	nextChunkID    int
	chunkSizeBytes int
	sampleLimit    int
}

// NewCollectionMetadata creates metadata for a newly sharded collection with
// a single chunk covering the whole key space, distributed across the given
// shards by pre-splitting into one chunk per shard when hash partitioning is
// used (matching the even pre-split behaviour of hashed sharding).
func NewCollectionMetadata(namespace string, key ShardKey, shards []string, chunkSizeBytes int) *CollectionMetadata {
	if chunkSizeBytes <= 0 {
		chunkSizeBytes = DefaultChunkSizeBytes
	}
	m := &CollectionMetadata{
		Namespace:      namespace,
		Key:            key,
		chunkSizeBytes: chunkSizeBytes,
		sampleLimit:    4096,
	}
	if key.Hashed && len(shards) > 1 {
		m.preSplitHashed(shards)
		return m
	}
	m.chunks = []*Chunk{{ID: m.nextChunkID, Shard: shards[0]}}
	m.nextChunkID++
	return m
}

// preSplitHashed divides the signed 64-bit hash space evenly across shards.
func (m *CollectionMetadata) preSplitHashed(shards []string) {
	n := len(shards)
	// Boundaries at -2^63 + i * (2^64 / n), computed in float space which is
	// precise enough for boundary placement.
	bounds := make([]int64, 0, n-1)
	for i := 1; i < n; i++ {
		f := float64(i) / float64(n)
		bounds = append(bounds, int64(f*float64(1<<63)*2-float64(1<<63)))
	}
	prevSet := false
	var prev int64
	for i := 0; i < n; i++ {
		c := &Chunk{ID: m.nextChunkID, Shard: shards[i]}
		m.nextChunkID++
		if prevSet {
			c.Min, c.HasMin = prev, true
		}
		if i < n-1 {
			c.Max, c.HasMax = bounds[i], true
			prev, prevSet = bounds[i], true
		}
		m.chunks = append(m.chunks, c)
	}
}

// Chunks returns a snapshot of the chunk list in key order.
func (m *CollectionMetadata) Chunks() []*Chunk {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Chunk, len(m.chunks))
	copy(out, m.chunks)
	return out
}

// ChunkCountByShard returns how many chunks each shard owns.
func (m *CollectionMetadata) ChunkCountByShard() map[string]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string]int)
	for _, c := range m.chunks {
		out[c.Shard]++
	}
	return out
}

// ShardForValue returns the shard owning the chunk that contains the routing
// value.
func (m *CollectionMetadata) ShardForValue(v any) (string, *Chunk) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := m.chunkForLocked(v)
	return c.Shard, c
}

func (m *CollectionMetadata) chunkForLocked(v any) *Chunk {
	// Binary search over ordered chunks: find the first chunk whose Max is
	// greater than v (or unbounded).
	lo, hi := 0, len(m.chunks)-1
	for lo < hi {
		mid := (lo + hi) / 2
		c := m.chunks[mid]
		if c.HasMax && bson.Compare(v, c.Max) >= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return m.chunks[lo]
}

// ShardsForRange returns the distinct shards whose chunks intersect the
// routing-value range [min, max]. Unbounded sides are expressed by hasMin /
// hasMax being false.
func (m *CollectionMetadata) ShardsForRange(min any, hasMin bool, max any, hasMax bool) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	seen := make(map[string]bool)
	var out []string
	for _, c := range m.chunks {
		if hasMax && c.HasMin && bson.Compare(c.Min, max) > 0 {
			break
		}
		if hasMin && c.HasMax && bson.Compare(c.Max, min) <= 0 {
			continue
		}
		if !seen[c.Shard] {
			seen[c.Shard] = true
			out = append(out, c.Shard)
		}
	}
	sort.Strings(out)
	return out
}

// AllShards returns every shard that owns at least one chunk.
func (m *CollectionMetadata) AllShards() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	seen := make(map[string]bool)
	var out []string
	for _, c := range m.chunks {
		if !seen[c.Shard] {
			seen[c.Shard] = true
			out = append(out, c.Shard)
		}
	}
	sort.Strings(out)
	return out
}

// RecordInsert accounts for a document with the given routing value and
// encoded size landing in its chunk, splitting the chunk when it exceeds the
// configured size. It returns the shard the document belongs to.
func (m *CollectionMetadata) RecordInsert(v any, sizeBytes int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.chunkForLocked(v)
	c.DocCount++
	c.SizeBytes += sizeBytes
	if len(c.values) < m.sampleLimit {
		c.values = append(c.values, v)
	}
	shard := c.Shard
	if c.SizeBytes > m.chunkSizeBytes && !c.Jumbo {
		m.splitChunkLocked(c)
	}
	return shard
}

// splitChunkLocked splits a chunk at the median of its sampled values. When
// every sampled value is identical the chunk is marked jumbo instead
// (§2.1.3.3, Figure 2.7).
func (m *CollectionMetadata) splitChunkLocked(c *Chunk) {
	if len(c.values) < 2 {
		c.Jumbo = true
		return
	}
	vals := append([]any(nil), c.values...)
	sort.Slice(vals, func(i, j int) bool { return bson.Compare(vals[i], vals[j]) < 0 })
	median := vals[len(vals)/2]
	// The split point must strictly separate values; if the median equals the
	// minimum sampled value, advance to the first greater value.
	if bson.Compare(median, vals[0]) == 0 {
		idx := sort.Search(len(vals), func(i int) bool { return bson.Compare(vals[i], median) > 0 })
		if idx == len(vals) {
			// All values identical: cannot split.
			c.Jumbo = true
			return
		}
		median = vals[idx]
	}
	// Left keeps [Min, median), right gets [median, Max).
	right := &Chunk{
		ID:     m.nextChunkID,
		Shard:  c.Shard,
		Min:    median,
		HasMin: true,
		Max:    c.Max,
		HasMax: c.HasMax,
	}
	m.nextChunkID++
	c.Max, c.HasMax = median, true

	// Re-apportion accounting and samples between the halves.
	var leftVals, rightVals []any
	for _, v := range vals {
		if bson.Compare(v, median) < 0 {
			leftVals = append(leftVals, v)
		} else {
			rightVals = append(rightVals, v)
		}
	}
	total := len(leftVals) + len(rightVals)
	if total > 0 {
		leftFrac := float64(len(leftVals)) / float64(total)
		right.DocCount = c.DocCount - int(float64(c.DocCount)*leftFrac)
		right.SizeBytes = c.SizeBytes - int(float64(c.SizeBytes)*leftFrac)
		c.DocCount -= right.DocCount
		c.SizeBytes -= right.SizeBytes
	}
	c.values = leftVals
	right.values = rightVals

	// Insert the right chunk immediately after the left one.
	pos := 0
	for i, existing := range m.chunks {
		if existing == c {
			pos = i
			break
		}
	}
	m.chunks = append(m.chunks, nil)
	copy(m.chunks[pos+2:], m.chunks[pos+1:])
	m.chunks[pos+1] = right
}

// Validate checks the chunk invariants: full coverage of the key space,
// ordering, and non-overlap. The chunk property tests use it as their
// oracle.
func (m *CollectionMetadata) Validate() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.chunks) == 0 {
		return fmt.Errorf("sharding: no chunks")
	}
	if m.chunks[0].HasMin {
		return fmt.Errorf("sharding: first chunk has a lower bound")
	}
	if m.chunks[len(m.chunks)-1].HasMax {
		return fmt.Errorf("sharding: last chunk has an upper bound")
	}
	for i := 0; i < len(m.chunks)-1; i++ {
		cur, next := m.chunks[i], m.chunks[i+1]
		if !cur.HasMax || !next.HasMin {
			return fmt.Errorf("sharding: interior chunk boundary missing between %d and %d", cur.ID, next.ID)
		}
		if bson.Compare(cur.Max, next.Min) != 0 {
			return fmt.Errorf("sharding: gap or overlap between chunk %d max %v and chunk %d min %v", cur.ID, cur.Max, next.ID, next.Min)
		}
	}
	return nil
}
