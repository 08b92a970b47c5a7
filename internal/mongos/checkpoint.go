package mongos

import (
	"docstore/internal/mongod"
)

// ClusterCheckpointStats reports a cluster-consistent checkpoint: one
// per-shard checkpoint, all taken at a single capture point.
type ClusterCheckpointStats struct {
	Shards map[string]mongod.CheckpointStats
}

// Checkpoint takes a cluster-consistent checkpoint of every shard's primary
// with mongod.CheckpointAll: writes are held on every shard at once while
// each pins its capture, so no shard restores ahead of another, and each
// shard streams its checkpoint after the holds are released. A shard that
// fails mid-stream leaves its previous checkpoint intact, so the cluster
// checkpoint is wholly at the capture point or cleanly absent, never torn;
// the first error is reported.
//
// Sharding metadata (the config server's shard-key table) is in-memory and
// not part of the capture; a cluster restored from checkpoints re-issues its
// shardCollection commands.
func (r *Router) Checkpoint() (ClusterCheckpointStats, error) {
	names := r.ShardNames()
	primaries := make([]*mongod.Server, len(names))
	for i, name := range names {
		primaries[i] = r.Shard(name)
	}
	perShard, err := mongod.CheckpointAll(primaries)
	stats := ClusterCheckpointStats{Shards: make(map[string]mongod.CheckpointStats, len(names))}
	for i, name := range names {
		stats.Shards[name] = perShard[i]
	}
	return stats, err
}
