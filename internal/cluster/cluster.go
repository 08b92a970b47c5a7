// Package cluster assembles sharded deployments: it builds clusters of shard
// servers plus a config server and query router, and reproduces the thesis'
// deployment topologies (Figure 3.1: 3 shards, 1 config server, 1 combined
// application server / query router).
package cluster

import (
	"fmt"
	"time"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/sharding"
)

// Config describes a sharded deployment to build.
type Config struct {
	// Shards is the number of shard servers (the thesis uses 3).
	Shards int
	// ShardRAMBytes sizes each shard server (informational, feeds
	// working-set pressure reporting).
	ShardRAMBytes int64
	// NetworkLatency simulates the per-call network cost between the query
	// router and the shards.
	NetworkLatency time.Duration
	// ParallelScatter makes the router fan out shard calls concurrently.
	ParallelScatter bool
	// ChunkSizeBytes overrides the 64 MB default chunk size.
	ChunkSizeBytes int
}

// Cluster is a fully assembled sharded deployment: shard servers named
// Shard1, Shard2, ..., a config server and a query router, mirroring
// Figure 3.1.
type Cluster struct {
	cfg    Config
	shards []*mongod.Server
	config *sharding.ConfigServer
	router *mongos.Router
}

// Build creates the deployment.
func Build(cfg Config) (*Cluster, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("cluster: at least one shard is required")
	}
	c := &Cluster{cfg: cfg, config: sharding.NewConfigServer()}
	c.router = mongos.NewRouter(c.config, mongos.Options{
		NetworkLatency: cfg.NetworkLatency,
		Parallel:       cfg.ParallelScatter,
	})
	for i := 0; i < cfg.Shards; i++ {
		s := mongod.NewServer(mongod.Options{Name: fmt.Sprintf("Shard%d", i+1), RAMBytes: cfg.ShardRAMBytes})
		c.shards = append(c.shards, s)
		c.router.AddShard(s.Name(), s)
	}
	return c, nil
}

// MustBuild is Build but panics on error.
func MustBuild(cfg Config) *Cluster {
	c, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Router returns the cluster's query router; all client operations go
// through it.
func (c *Cluster) Router() *mongos.Router { return c.router }

// ConfigServer returns the cluster's config server.
func (c *Cluster) ConfigServer() *sharding.ConfigServer { return c.config }

// Shards returns the shard servers.
func (c *Cluster) Shards() []*mongod.Server { return append([]*mongod.Server(nil), c.shards...) }

// ShardCollection shards db.coll on the given key and returns its metadata.
func (c *Cluster) ShardCollection(db, coll string, keySpec *bson.Doc) (*sharding.CollectionMetadata, error) {
	return c.router.EnableSharding(db, coll, keySpec, c.cfg.ChunkSizeBytes)
}
