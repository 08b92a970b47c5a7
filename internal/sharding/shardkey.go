// Package sharding implements the data-distribution substrate of the sharded
// cluster: shard keys, range- and hash-based partitioning, and the config
// metadata that maps chunks to shards (§2.1.3 of the thesis). A collection's
// partition is fixed when it is sharded: a hashed key is pre-split into one
// chunk per shard, a range key is one chunk on the first shard. Chunks are
// neither split nor migrated, so the router only ever reads the partition.
package sharding

import (
	"fmt"
	"strings"

	"docstore/internal/bson"
	"docstore/internal/index"
)

// ShardKey identifies how documents of a collection are distributed: an
// indexed field (or compound fields) present in every document, partitioned
// either by range or by hash.
type ShardKey struct {
	Fields []string
	Hashed bool
}

// ParseShardKey converts a shard-key specification document, e.g.
// {"ss_item_sk": 1} or {"ss_ticket_number": "hashed"}.
func ParseShardKey(spec *bson.Doc) (ShardKey, error) {
	var k ShardKey
	if spec == nil || spec.Len() == 0 {
		return k, fmt.Errorf("sharding: empty shard key")
	}
	for _, f := range spec.Fields() {
		switch v := bson.Normalize(f.Value).(type) {
		case int64, float64:
			k.Fields = append(k.Fields, f.Key)
		case string:
			if v != "hashed" {
				return k, fmt.Errorf("sharding: unsupported shard key type %q for %q", v, f.Key)
			}
			k.Fields = append(k.Fields, f.Key)
			k.Hashed = true
		default:
			return k, fmt.Errorf("sharding: invalid shard key value for %q", f.Key)
		}
	}
	if k.Hashed && len(k.Fields) > 1 {
		return k, fmt.Errorf("sharding: hashed shard keys must have exactly one field")
	}
	return k, nil
}

// MustParseShardKey is ParseShardKey but panics on error.
func MustParseShardKey(spec *bson.Doc) ShardKey {
	k, err := ParseShardKey(spec)
	if err != nil {
		panic(err)
	}
	return k
}

// Spec renders the shard key back into document form.
func (k ShardKey) Spec() *bson.Doc {
	d := bson.NewDoc(len(k.Fields))
	for _, f := range k.Fields {
		if k.Hashed {
			d.Set(f, "hashed")
		} else {
			d.Set(f, int64(1))
		}
	}
	return d
}

// String renders the shard key compactly ("ss_item_sk" or
// "ss_ticket_number:hashed").
func (k ShardKey) String() string {
	s := strings.Join(k.Fields, ",")
	if k.Hashed {
		s += ":hashed"
	}
	return s
}

// IndexSpec returns the index specification backing the shard key (the shard
// key must be indexed).
func (k ShardKey) IndexSpec() index.Spec {
	spec := index.Spec{}
	for _, f := range k.Fields {
		spec.Fields = append(spec.Fields, index.Field{Name: f, Hashed: k.Hashed})
	}
	return spec
}

// ValueOf extracts the routing value of a document under the shard key:
// the raw field value for range partitioning, its hash for hash partitioning.
// Compound keys produce a composite array value.
func (k ShardKey) ValueOf(doc *bson.Doc) any {
	if len(k.Fields) == 1 {
		v, _ := doc.GetPath(k.Fields[0])
		if k.Hashed {
			return index.HashValue(v)
		}
		return v
	}
	parts := make([]any, len(k.Fields))
	for i, f := range k.Fields {
		parts[i], _ = doc.GetPath(f)
	}
	return parts
}

// RoutingValue converts a literal shard-key field value (e.g. from a query
// constraint) into the routing space: identical to the raw value for range
// partitioning, hashed for hash partitioning.
func (k ShardKey) RoutingValue(v any) any {
	if k.Hashed {
		return index.HashValue(bson.Normalize(v))
	}
	return bson.Normalize(v)
}
