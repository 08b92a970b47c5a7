package sharding

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"docstore/internal/bson"
)

// contains reports whether a routing value falls inside the chunk's
// [Min, Max): the oracle the routing tests check ShardForValue against.
func contains(c *Chunk, v any) bool {
	if c.HasMin && bson.Compare(v, c.Min) < 0 {
		return false
	}
	if c.HasMax && bson.Compare(v, c.Max) >= 0 {
		return false
	}
	return true
}

func TestParseShardKey(t *testing.T) {
	k := MustParseShardKey(bson.D("ss_item_sk", 1))
	if len(k.Fields) != 1 || k.Hashed || k.String() != "ss_item_sk" {
		t.Fatalf("key = %+v", k)
	}
	k = MustParseShardKey(bson.D("ss_ticket_number", "hashed"))
	if !k.Hashed || k.String() != "ss_ticket_number:hashed" {
		t.Fatalf("hashed key = %+v", k)
	}
	k = MustParseShardKey(bson.D("a", 1, "b", 1))
	if len(k.Fields) != 2 {
		t.Fatalf("compound key = %+v", k)
	}
	// Round trip through Spec.
	k2 := MustParseShardKey(k.Spec())
	if k2.String() != k.String() {
		t.Fatalf("spec round trip: %s vs %s", k2, k)
	}
	spec := MustParseShardKey(bson.D("x", "hashed")).IndexSpec()
	if len(spec.Fields) != 1 || !spec.Fields[0].Hashed {
		t.Fatalf("IndexSpec = %+v", spec)
	}
	for _, bad := range []*bson.Doc{nil, bson.NewDoc(0), bson.D("x", "2d"), bson.D("x", true), bson.D("a", "hashed", "b", 1)} {
		if _, err := ParseShardKey(bad); err == nil {
			t.Errorf("ParseShardKey(%v) should fail", bad)
		}
	}
}

func TestMustParseShardKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustParseShardKey(bson.D("x", true))
}

func TestShardKeyValueOfAndRouting(t *testing.T) {
	doc := bson.D("ss_item_sk", 42, "ss_ticket_number", 1234, "other", "x")
	k := MustParseShardKey(bson.D("ss_item_sk", 1))
	if v := k.ValueOf(doc); v != int64(42) {
		t.Fatalf("ValueOf = %v", v)
	}
	if v := k.RoutingValue(42); v != int64(42) {
		t.Fatalf("RoutingValue = %v", v)
	}
	hk := MustParseShardKey(bson.D("ss_ticket_number", "hashed"))
	if hk.ValueOf(doc) != hk.RoutingValue(1234) {
		t.Fatalf("hashed routing value mismatch")
	}
	ck := MustParseShardKey(bson.D("a", 1, "b", 1))
	cv := ck.ValueOf(bson.D("a", 1, "b", 2)).([]any)
	if len(cv) != 2 || cv[0] != int64(1) || cv[1] != int64(2) {
		t.Fatalf("compound ValueOf = %v", cv)
	}
}

// validate checks the chunk invariants: full coverage of the key space,
// ordering, and non-overlap. The pre-split tests use it as their oracle.
func validate(m *CollectionMetadata) error {
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

// TestRangeKeyIsOneChunkOnTheFirstShard: a range-sharded collection is one
// unbounded chunk on the first shard, and every value routes to it.
func TestRangeKeyIsOneChunkOnTheFirstShard(t *testing.T) {
	key := MustParseShardKey(bson.D("k", 1))
	m := NewCollectionMetadata("db.c", key, []string{"Shard1", "Shard2", "Shard3"})
	if err := validate(m); err != nil {
		t.Fatalf("metadata invalid: %v", err)
	}
	chunks := m.Chunks()
	if len(chunks) != 1 || chunks[0].Shard != "Shard1" {
		t.Fatalf("a range-sharded collection should be one chunk on Shard1, got %v", chunks)
	}
	for _, v := range []any{int64(-1 << 40), int64(0), int64(37), "x", nil} {
		shard, chunk := m.ShardForValue(v)
		if shard != "Shard1" || chunk != chunks[0] || !contains(chunk, v) {
			t.Fatalf("value %v routed to %s, chunk %s", v, shard, chunk)
		}
	}
	if got := m.AllShards(); len(got) != 1 || got[0] != "Shard1" {
		t.Fatalf("AllShards = %v", got)
	}
	if got := m.ShardsForRange(int64(0), true, int64(10), true); len(got) != 1 || got[0] != "Shard1" {
		t.Fatalf("ShardsForRange = %v", got)
	}
	if chunks[0].String() != "chunk 0 [-inf, +inf) on Shard1" {
		t.Fatalf("chunk String = %q", chunks[0].String())
	}
}

// TestHashedPreSplitDistributesAcrossShards: a hashed collection is one
// chunk per shard over the whole hash space, every routing value lies in
// exactly the chunk it routes to, and consecutive keys spread over every
// shard.
func TestHashedPreSplitDistributesAcrossShards(t *testing.T) {
	key := MustParseShardKey(bson.D("k", "hashed"))
	shards := []string{"Shard1", "Shard2", "Shard3"}
	m := NewCollectionMetadata("db.c", key, shards)
	chunks := m.Chunks()
	if len(chunks) != 3 {
		t.Fatalf("hashed collection should pre-split into one chunk per shard, got %d", len(chunks))
	}
	if err := validate(m); err != nil {
		t.Fatalf("pre-split metadata invalid: %v", err)
	}
	for i, c := range chunks {
		if c.Shard != shards[i] {
			t.Fatalf("chunk %d is on %s, want %s", i, c.Shard, shards[i])
		}
	}
	counts := map[string]int{}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 3000; i++ {
		v := key.RoutingValue(int64(i))
		if i%2 == 1 {
			v = r.Int63() - r.Int63()
		}
		shard, chunk := m.ShardForValue(v)
		if !contains(chunk, v) || chunk.Shard != shard {
			t.Fatalf("value %v routed to %s, chunk %s", v, shard, chunk)
		}
		containing := 0
		for _, c := range chunks {
			if contains(c, v) {
				containing++
			}
		}
		if containing != 1 {
			t.Fatalf("value %v contained in %d chunks", v, containing)
		}
		if i%2 == 0 {
			counts[shard]++
		}
	}
	if len(counts) != 3 {
		t.Fatalf("hashed keys reached %d shards, want 3", len(counts))
	}
	for s, n := range counts {
		if n < 250 {
			t.Fatalf("shard %s received only %d of 1500 keys; distribution too skewed", s, n)
		}
	}
	if got := m.AllShards(); len(got) != 3 {
		t.Fatalf("AllShards = %v", got)
	}
	one := NewCollectionMetadata("db.one", key, shards[:1])
	if err := validate(one); err != nil || len(one.Chunks()) != 1 {
		t.Fatalf("a hashed collection on one shard is %v, %v; want one unbounded chunk", one.Chunks(), err)
	}
}

// TestShardsForRange asks for ranges of the hash space over a 3-shard hashed
// map: [-inf, b1) on Shard1, [b1, b2) on Shard2, [b2, +inf) on Shard3. Range
// bounds are inclusive; chunk bounds are [Min, Max).
func TestShardsForRange(t *testing.T) {
	m := NewCollectionMetadata("db.c", MustParseShardKey(bson.D("k", "hashed")), []string{"Shard1", "Shard2", "Shard3"})
	chunks := m.Chunks()
	b1, b2 := chunks[0].Max.(int64), chunks[1].Max.(int64)
	// bson.Compare orders numbers as float64, whose step near ±2^62 is 1024:
	// d keeps the probes that far apart from the bounds.
	const d = 1 << 12
	if chunks[1].Min != b1 || chunks[2].Min != b2 || b1 >= b2 {
		t.Fatalf("chunk bounds = %v", chunks)
	}
	cases := []struct {
		name   string
		min    any
		hasMin bool
		max    any
		hasMax bool
		want   []string
	}{
		{"unbounded", nil, false, nil, false, []string{"Shard1", "Shard2", "Shard3"}},
		{"inside the first chunk", int64(math.MinInt64), true, b1 - d, true, []string{"Shard1"}},
		{"below b1, unbounded below", nil, false, b1 - d, true, []string{"Shard1"}},
		{"across b1", b1 - d, true, b1, true, []string{"Shard1", "Shard2"}},
		{"at b1", b1, true, b1, true, []string{"Shard2"}},
		{"inside the middle chunk", b1 + d, true, b2 - d, true, []string{"Shard2"}},
		{"from b2 up", b2, true, nil, false, []string{"Shard3"}},
		{"b1-d to b2 inclusive", b1 - d, true, b2, true, []string{"Shard1", "Shard2", "Shard3"}},
		{"the last chunk's top", int64(math.MaxInt64), true, int64(math.MaxInt64), true, []string{"Shard3"}},
	}
	for _, c := range cases {
		got := m.ShardsForRange(c.min, c.hasMin, c.max, c.hasMax)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: ShardsForRange = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestConfigServerShardCollection(t *testing.T) {
	cs := NewConfigServer()
	if _, err := cs.ShardCollection("db.c", MustParseShardKey(bson.D("k", 1))); err == nil {
		t.Fatalf("sharding with no shards should fail")
	}
	cs.AddShard("Shard1")
	cs.AddShard("Shard2")
	cs.AddShard("Shard1") // duplicate is a no-op
	hashed, err := cs.ShardCollection("db.h", MustParseShardKey(bson.D("k", "hashed")))
	if err != nil {
		t.Fatal(err)
	}
	if got := hashed.AllShards(); len(got) != 2 || got[0] != "Shard1" || got[1] != "Shard2" {
		t.Fatalf("a hashed collection pre-split over %v, want [Shard1 Shard2]", got)
	}
	meta, err := cs.ShardCollection("db.c", MustParseShardKey(bson.D("k", 1)))
	if err != nil || meta == nil {
		t.Fatalf("ShardCollection: %v", err)
	}
	if cs.Metadata("db.other") != nil {
		t.Fatalf("an unsharded namespace has metadata")
	}
	if cs.Metadata("db.c") != meta {
		t.Fatalf("Metadata lookup mismatch")
	}
	// Shard key is immutable: re-sharding fails.
	if _, err := cs.ShardCollection("db.c", MustParseShardKey(bson.D("other", 1))); err == nil {
		t.Fatalf("re-sharding should fail")
	}
	if got := cs.ShardedNamespaces(); len(got) != 2 || got[0] != "db.c" || got[1] != "db.h" {
		t.Fatalf("ShardedNamespaces = %v", got)
	}
	// A shard registered later sorts before an existing one; the partitions
	// already published keep their shards.
	cs.AddShard("Shard0")
	if got := hashed.AllShards(); len(got) != 2 || got[0] != "Shard1" || got[1] != "Shard2" {
		t.Fatalf("AddShard changed a published partition: %v", got)
	}
}

// TestHashedRoutingNearAChunkBound routes the routing values on either side
// of each bound of a 3-shard hashed map, where the bounds are large int64s
// no float64 tells from their neighbours: the value one below a bound
// belongs to the chunk the bound closes, the bound itself to the next one.
func TestHashedRoutingNearAChunkBound(t *testing.T) {
	m := NewCollectionMetadata("db.c", MustParseShardKey(bson.D("k", "hashed")), []string{"Shard1", "Shard2", "Shard3"})
	chunks := m.Chunks()
	for i, c := range chunks[:len(chunks)-1] {
		bound := c.Max.(int64)
		if float64(bound-1) != float64(bound) {
			t.Fatalf("bound %d is not past float64's precision; the test needs one that is", bound)
		}
		if shard, _ := m.ShardForValue(bound - 1); shard != c.Shard {
			t.Errorf("%d, one below chunk %d's bound, routed to %s, want %s", bound-1, i, shard, c.Shard)
		}
		if shard, _ := m.ShardForValue(bound); shard != chunks[i+1].Shard {
			t.Errorf("%d, chunk %d's bound, routed to %s, want %s", bound, i, shard, chunks[i+1].Shard)
		}
		if got := m.ShardsForRange(bound-1, true, bound-1, true); len(got) != 1 || got[0] != c.Shard {
			t.Errorf("the range [%d, %d] reaches %v, want only %s", bound-1, bound-1, got, c.Shard)
		}
	}
}
