package mongos

import "docstore/internal/bson"

// HealthDocs aggregates replication health from every replica-backed shard,
// tagging each member document with its shard name: the serverStatus "repl"
// section of a routed deployment, as driver.NewRouted's Members. Plain shards
// contribute nothing.
func (r *Router) HealthDocs() []*bson.Doc {
	type memberHealthSource interface {
		HealthDocs() []*bson.Doc
	}
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	shards := make([]ReplicaShard, len(names))
	for i, n := range names {
		shards[i] = r.shards[n]
	}
	r.mu.RUnlock()
	var out []*bson.Doc
	for i, shard := range shards {
		hs, ok := shard.(memberHealthSource)
		if !ok {
			continue
		}
		for _, doc := range hs.HealthDocs() {
			doc.Set("shard", names[i])
			out = append(out, doc)
		}
	}
	return out
}
