package sharding

import (
	"fmt"
	"sort"
	"sync"
)

// ConfigServer stores the cluster metadata: the registered shards and, for
// every sharded collection, its shard key and chunk-to-shard mapping
// (§2.1.3.1, "Config servers").
type ConfigServer struct {
	mu          sync.RWMutex
	shards      []string
	collections map[string]*CollectionMetadata // namespace -> metadata
}

// NewConfigServer creates an empty config server.
func NewConfigServer() *ConfigServer {
	return &ConfigServer{collections: make(map[string]*CollectionMetadata)}
}

// AddShard registers a shard by name. Adding an existing shard is a no-op.
func (cs *ConfigServer) AddShard(name string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, s := range cs.shards {
		if s == name {
			return
		}
	}
	cs.shards = append(cs.shards, name)
	sort.Strings(cs.shards)
}

// ShardCollection registers a collection as sharded with the given key.
// It fails when the collection is already sharded (the shard key is
// immutable, as §4.4 notes) or when no shards are registered.
func (cs *ConfigServer) ShardCollection(namespace string, key ShardKey, chunkSizeBytes int) (*CollectionMetadata, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.shards) == 0 {
		return nil, fmt.Errorf("sharding: no shards registered")
	}
	if _, exists := cs.collections[namespace]; exists {
		return nil, fmt.Errorf("sharding: collection %q is already sharded; the shard key is immutable", namespace)
	}
	meta := NewCollectionMetadata(namespace, key, cs.shards, chunkSizeBytes)
	cs.collections[namespace] = meta
	return meta, nil
}

// Metadata returns the sharding metadata for a namespace, or nil when the
// collection is not sharded.
func (cs *ConfigServer) Metadata(namespace string) *CollectionMetadata {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return cs.collections[namespace]
}

// ShardedNamespaces lists sharded collections in sorted order.
func (cs *ConfigServer) ShardedNamespaces() []string {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	out := make([]string, 0, len(cs.collections))
	for ns := range cs.collections {
		out = append(out, ns)
	}
	sort.Strings(out)
	return out
}
