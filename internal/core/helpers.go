package core

import (
	"fmt"

	"docstore/internal/cluster"
	"docstore/internal/migrate"
	"docstore/internal/mongod"
)

// Small construction helpers shared by Setup and the ablation runners.

func buildCluster(cfg Config) (*cluster.Cluster, error) {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 3
	}
	return cluster.Build(cluster.Config{
		Shards:          shards,
		ShardRAMBytes:   8 << 30,
		NetworkLatency:  cfg.NetworkLatency,
		ParallelScatter: cfg.ParallelScatter,
		ChunkSizeBytes:  cfg.ChunkSizeBytes,
	})
}

func newStandaloneServer() *mongod.Server {
	return mongod.NewServer(mongod.Options{Name: "standalone-m4.4xlarge", RAMBytes: 64 << 30})
}

// loadAndIndex migrates the dataset into d.Load and builds the benchmark
// indexes.
func loadAndIndex(d *Deployment) error {
	load, err := migrate.LoadDataset(d.Store, d.generator)
	if err != nil {
		return fmt.Errorf("core: loading dataset for %s: %w", d.Spec.Label(), err)
	}
	d.Load = load
	if err := migrate.EnsureQueryIndexes(d.Store, d.generator.Schema()); err != nil {
		return fmt.Errorf("core: building indexes for %s: %w", d.Spec.Label(), err)
	}
	return nil
}
