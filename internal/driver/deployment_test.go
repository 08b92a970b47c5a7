package driver

import (
	"testing"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// TestOpenCloseReopen runs each shape docstored serves through Open over a
// data directory: it writes, closes, opens the directory again and reads
// every acknowledged document back — on a replica set on every member, the
// secondaries from the reloaded oplog.
func TestOpenCloseReopen(t *testing.T) {
	for _, shape := range []struct {
		name string
		cfg  Config
	}{
		{"stand-alone", Config{}},
		{"replica set", Config{Replicas: 3}},
		{"router", Config{Shards: 2}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			cfg := shape.cfg
			cfg.Name, cfg.Durability = "t", mongod.Durability{Dir: t.TempDir(), Sync: wal.SyncGroupCommit}
			open := func() Deployment {
				t.Helper()
				d, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Shards > 0 {
					// Sharding metadata is in memory: a reopened router is told again.
					if err := d.ShardCollection("db", "c", bson.D("k", "hashed")); err != nil {
						t.Fatal(err)
					}
				}
				return d
			}

			d := open()
			docs := make([]*bson.Doc, 20)
			for i := range docs {
				docs[i] = bson.D(bson.IDKey, i, "k", i)
			}
			if ids, err := d.Store("db").InsertMany("c", docs[:10]); err != nil || len(ids) != 10 {
				t.Fatalf("InsertMany = %v, %v", ids, err)
			}
			res := d.Store("db").BulkWrite("c", storage.InsertOps(docs[10:]), storage.BulkOptions{Journaled: true})
			if err := res.FirstError(); err != nil || res.Inserted != 10 {
				t.Fatalf("journaled BulkWrite inserted %d: %v", res.Inserted, err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			d = open()
			defer func() {
				if err := d.Close(); err != nil {
					t.Errorf("Close after reopening: %v", err)
				}
			}()
			if n, err := d.Store("db").Count("c", nil); err != nil || n != len(docs) {
				t.Fatalf("reopened deployment counts %d documents (%v), want %d", n, err, len(docs))
			}
			if st := d.Status(); st.Documents != len(docs) || st.Collections != 1 {
				t.Fatalf("reopened status: %d documents in %d collections", st.Documents, st.Collections)
			}
			if r, ok := d.(*replicated); ok {
				if err := r.rs.Sync(); err != nil {
					t.Fatal(err)
				}
				for _, m := range r.rs.Members() {
					if n := m.Database("db").Collection("c").Count(); n != len(docs) {
						t.Fatalf("member %s holds %d documents after the oplog reload, want %d", m.Name(), n, len(docs))
					}
				}
			}
		})
	}
}

// TestOpenRefusesShardsOfReplicas: docstored's -shards and -replicas > 1
// stay mutually exclusive.
func TestOpenRefusesShardsOfReplicas(t *testing.T) {
	if d, err := Open(Config{Name: "t", Shards: 2, Replicas: 3}); err == nil {
		d.Close()
		t.Fatalf("Open built %T from 2 shards of 3 replicas", d)
	}
}
