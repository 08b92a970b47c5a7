package mongos

import "docstore/internal/bson"

// HealthDocs aggregates replication health from every replica-backed shard,
// tagging each member document with its shard name: the serverStatus "repl"
// section for a routed deployment. Plain shards contribute nothing. The
// method gives *Router the same replication-health face *replset.ReplicaSet
// has, so the wire layer's interface assertion works behind a router too.
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
