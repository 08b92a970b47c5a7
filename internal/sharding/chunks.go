package sharding

import (
	"fmt"
	"sort"

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
	return fmt.Sprintf("chunk %d [%s, %s) on %s", c.ID, min, max, c.Shard)
}

// CollectionMetadata is the config-server record for one sharded collection:
// its shard key and the chunk → shard mapping. It is built whole by
// NewCollectionMetadata and never changes afterwards, so it is read without
// a lock.
type CollectionMetadata struct {
	Namespace string // "db.collection"
	Key       ShardKey

	chunks    []*Chunk // ordered by Min
	allShards []string // sorted shards owning a chunk
}

// NewCollectionMetadata builds the partition of a newly sharded collection.
// A hashed key divides the hash space evenly into one chunk per shard
// (hashed sharding's even pre-split); a range key is one chunk on the first
// shard.
func NewCollectionMetadata(namespace string, key ShardKey, shards []string) *CollectionMetadata {
	m := &CollectionMetadata{Namespace: namespace, Key: key}
	if !key.Hashed {
		shards = shards[:1]
	}
	n := len(shards)
	// Boundaries at -2^63 + i * (2^64 / n), computed in float space which is
	// precise enough for boundary placement.
	for i, shard := range shards {
		c := &Chunk{ID: i, Shard: shard}
		if i > 0 {
			c.Min, c.HasMin = m.chunks[i-1].Max, true
		}
		if i < n-1 {
			f := float64(i+1) / float64(n)
			c.Max, c.HasMax = int64(f*float64(1<<63)*2-float64(1<<63)), true
		}
		m.chunks = append(m.chunks, c)
	}
	m.allShards = append([]string(nil), shards...)
	sort.Strings(m.allShards)
	return m
}

// Chunks returns a copy of the chunk list in key order. The chunks are the
// metadata's own: callers must not write them.
func (m *CollectionMetadata) Chunks() []*Chunk {
	return append([]*Chunk(nil), m.chunks...)
}

// ShardForValue returns the shard owning the chunk that contains the routing
// value.
func (m *CollectionMetadata) ShardForValue(v any) (string, *Chunk) {
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
	c := m.chunks[lo]
	return c.Shard, c
}

// ShardsForRange returns the distinct shards whose chunks intersect the
// routing-value range [min, max]. Unbounded sides are expressed by hasMin /
// hasMax being false.
func (m *CollectionMetadata) ShardsForRange(min any, hasMin bool, max any, hasMax bool) []string {
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

// AllShards returns every shard that owns at least one chunk, sorted. The
// slice is the metadata's own: callers must not write it.
func (m *CollectionMetadata) AllShards() []string { return m.allShards }
