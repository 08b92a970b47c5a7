package sharding

import (
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

func TestSingleChunkRoutingAndSplit(t *testing.T) {
	key := MustParseShardKey(bson.D("k", 1))
	m := NewCollectionMetadata("db.c", key, []string{"Shard1", "Shard2", "Shard3"}, 4096)
	if err := m.Validate(); err != nil {
		t.Fatalf("initial metadata invalid: %v", err)
	}
	if len(m.Chunks()) != 1 {
		t.Fatalf("range-sharded collection should start with one chunk")
	}
	if m.chunkSizeBytes != 4096 {
		t.Fatalf("chunk size = %d", m.chunkSizeBytes)
	}
	// Insert documents with increasing keys until splits happen.
	for i := 0; i < 2000; i++ {
		m.RecordInsert(int64(i), 64)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("metadata invalid after splits: %v", err)
	}
	if len(m.Chunks()) < 4 {
		t.Fatalf("expected multiple chunks after 128KB of inserts, got %d", len(m.Chunks()))
	}
	if len(jumboChunks(m)) != 0 {
		t.Fatalf("no jumbo chunks expected for distinct keys")
	}
	// Every key routes to exactly the chunk containing it.
	for i := 0; i < 2000; i += 37 {
		shard, chunk := m.ShardForValue(int64(i))
		if !contains(chunk, int64(i)) {
			t.Fatalf("value %d routed to chunk %s that does not contain it", i, chunk)
		}
		if shard == "" {
			t.Fatalf("empty shard for value %d", i)
		}
	}
	// Doc counts are preserved across splits.
	total := 0
	for _, c := range m.Chunks() {
		total += c.DocCount
	}
	if total != 2000 {
		t.Fatalf("doc count after splits = %d", total)
	}
}

func TestJumboChunkDetection(t *testing.T) {
	key := MustParseShardKey(bson.D("k", 1))
	m := NewCollectionMetadata("db.c", key, []string{"Shard1"}, 1024)
	// All documents share one shard-key value: the chunk cannot split
	// (Figure 2.7's uneven distribution example).
	for i := 0; i < 100; i++ {
		m.RecordInsert(int64(36), 64)
	}
	jumbo := jumboChunks(m)
	if len(jumbo) != 1 {
		t.Fatalf("expected one jumbo chunk, got %d", len(jumbo))
	}
	if jumbo[0].DocCount != 100 {
		t.Fatalf("jumbo chunk doc count = %d", jumbo[0].DocCount)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("metadata invalid: %v", err)
	}
	if jumbo[0].String() == "" {
		t.Fatalf("chunk String should render")
	}
}

// jumboChunks is the chunks of m marked jumbo.
func jumboChunks(m *CollectionMetadata) []*Chunk {
	var out []*Chunk
	for _, c := range m.Chunks() {
		if c.Jumbo {
			out = append(out, c)
		}
	}
	return out
}

func TestHashedPreSplitDistributesAcrossShards(t *testing.T) {
	key := MustParseShardKey(bson.D("k", "hashed"))
	shards := []string{"Shard1", "Shard2", "Shard3"}
	m := NewCollectionMetadata("db.c", key, shards, 0)
	if len(m.Chunks()) != 3 {
		t.Fatalf("hashed collection should pre-split into one chunk per shard, got %d", len(m.Chunks()))
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("pre-split metadata invalid: %v", err)
	}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		shard := m.RecordInsert(key.RoutingValue(int64(i)), 32)
		counts[shard]++
	}
	if len(counts) != 3 {
		t.Fatalf("hashed inserts touched %d shards, want 3", len(counts))
	}
	for s, n := range counts {
		if n < 500 {
			t.Fatalf("shard %s received only %d of 3000 documents; distribution too skewed", s, n)
		}
	}
	if got := m.AllShards(); len(got) != 3 {
		t.Fatalf("AllShards = %v", got)
	}
	sum := 0
	for _, c := range m.Chunks() {
		sum += c.DocCount
	}
	if sum != 3000 {
		t.Fatalf("chunk DocCount sum = %d", sum)
	}
}

func TestShardsForRange(t *testing.T) {
	key := MustParseShardKey(bson.D("k", 1))
	m := NewCollectionMetadata("db.c", key, []string{"Shard1"}, 2048)
	for i := 0; i < 1000; i++ {
		m.RecordInsert(int64(i), 64)
	}
	// Reassign chunks round-robin across three shards to exercise range
	// routing over multiple shards.
	for i, c := range m.Chunks() {
		c.Shard = []string{"Shard1", "Shard2", "Shard3"}[i%3]
	}
	all := m.ShardsForRange(nil, false, nil, false)
	if len(all) != 3 {
		t.Fatalf("unbounded range should hit all shards, got %v", all)
	}
	chunks := m.Chunks()
	first := chunks[0]
	if !first.HasMax {
		t.Fatalf("expected the first chunk to be bounded after splits")
	}
	// A range fully inside the first chunk targets only its shard. Range
	// bounds are treated inclusively, so stay strictly below the chunk's Max.
	got := m.ShardsForRange(int64(0), true, first.Max.(int64)-1, true)
	if len(got) != 1 || got[0] != first.Shard {
		t.Fatalf("narrow range shards = %v, want [%s]", got, first.Shard)
	}
	// A half-open range from a high value excludes early chunks.
	last := chunks[len(chunks)-1]
	got = m.ShardsForRange(last.Min, true, nil, false)
	if len(got) == 3 && len(chunks) > 3 {
		t.Fatalf("high range should not need every shard")
	}
}

func TestConfigServerShardCollection(t *testing.T) {
	cs := NewConfigServer()
	if _, err := cs.ShardCollection("db.c", MustParseShardKey(bson.D("k", 1)), 0); err == nil {
		t.Fatalf("sharding with no shards should fail")
	}
	cs.AddShard("Shard1")
	cs.AddShard("Shard2")
	cs.AddShard("Shard1") // duplicate is a no-op
	hashed, err := cs.ShardCollection("db.h", MustParseShardKey(bson.D("k", "hashed")), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := hashed.AllShards(); len(got) != 2 || got[0] != "Shard1" || got[1] != "Shard2" {
		t.Fatalf("a hashed collection pre-split over %v, want [Shard1 Shard2]", got)
	}
	meta, err := cs.ShardCollection("db.c", MustParseShardKey(bson.D("k", 1)), 0)
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
	if _, err := cs.ShardCollection("db.c", MustParseShardKey(bson.D("other", 1)), 0); err == nil {
		t.Fatalf("re-sharding should fail")
	}
	if got := cs.ShardedNamespaces(); len(got) != 2 || got[0] != "db.c" || got[1] != "db.h" {
		t.Fatalf("ShardedNamespaces = %v", got)
	}
}

// TestChunkInvariantsUnderRandomInsertsProperty drives random inserts through
// metadata with a small chunk size and checks coverage/non-overlap plus
// routing consistency after every batch.
func TestChunkInvariantsUnderRandomInsertsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	key := MustParseShardKey(bson.D("k", 1))
	m := NewCollectionMetadata("db.c", key, []string{"S1", "S2"}, 512)
	for batch := 0; batch < 50; batch++ {
		for i := 0; i < 200; i++ {
			m.RecordInsert(int64(r.Intn(5000)), 8+r.Intn(64))
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		// Any value must route to exactly one chunk that contains it.
		for trial := 0; trial < 20; trial++ {
			v := int64(r.Intn(6000))
			_, chunk := m.ShardForValue(v)
			if !contains(chunk, v) {
				t.Fatalf("value %d routed to non-containing chunk %s", v, chunk)
			}
			containing := 0
			for _, c := range m.Chunks() {
				if contains(c, v) {
					containing++
				}
			}
			if containing != 1 {
				t.Fatalf("value %d contained in %d chunks", v, containing)
			}
		}
	}
}
