package driver

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/query"
	"docstore/internal/replset"
	"docstore/internal/sharding"
	"docstore/internal/storage"
	"docstore/internal/wal"
)

// Deployment is a running deployment of a shape docstored serves: a
// stand-alone server, a replica set or a query router over shards. A front
// end asks it for a Store per data operation and for the answers that
// differ by shape, never for the shape.
type Deployment interface {
	// Store returns the Store over db, creating db; its BulkWrite is the
	// write path: direct, through the set's quorum, or scattered.
	Store(db string) Store
	// CheckWriteConcern refuses w > 1 where no replica set acknowledges it.
	CheckWriteConcern(wc storage.WriteConcern) error
	// OrderedInserts is false on a router, where order costs a round trip
	// per run of same-shard documents.
	OrderedInserts() bool
	// CollectionNames lists db's collections, sorted, without creating db.
	CollectionNames(db string) []string
	// Status is the data half of stats, summed over the servers holding
	// data; a database or collection on several shards counts once.
	Status() mongod.ServerStatus
	// Server is the server whose change streams, log and metrics stats and
	// /metrics report: the server, the set's primary, or a router's front.
	Server() *mongod.Server
	// Members is the replication health of every replica-set member.
	Members() []*bson.Doc
	// Checkpoint checkpoints the servers holding data, a router's shards as
	// one cluster-consistent capture, and reports it as the wire op does;
	// n counts the servers.
	Checkpoint() (report *bson.Doc, n int, err error)
	// ShardCollection declares db.coll sharded on keys; only a router can.
	ShardCollection(db, coll string, keys *bson.Doc) error
	// Close stops the set, closes its oplog's log, then checkpoints the
	// durable servers, so the next Open loads snapshots, and closes theirs.
	Close() error
}

// checkpointDoc renders one server's checkpoint outcome.
func checkpointDoc(st mongod.CheckpointStats) *bson.Doc {
	return bson.D(
		"lsn", st.LSN,
		"collections", st.Collections,
		"segmentsPruned", st.SegmentsPruned,
		"skipped", st.Skipped,
	)
}

// closeDurable ends durable servers: checkpoint, then every server's log.
// Servers without durability have neither, and are left as they are.
func closeDurable(checkpoint func() (*bson.Doc, int, error), servers ...*mongod.Server) error {
	if len(servers) == 0 || !servers[0].DurabilityEnabled() {
		return nil
	}
	_, _, err := checkpoint()
	for _, s := range servers {
		err = errors.Join(err, s.CloseDurability())
	}
	return err
}

// single is a stand-alone server as a deployment.
type single struct{ srv *mongod.Server }

// NewSingle serves one stand-alone server.
func NewSingle(srv *mongod.Server) Deployment { return single{srv} }

func (d single) Store(db string) Store              { return NewStandalone(d.srv.Database(db)) }
func (d single) OrderedInserts() bool               { return true }
func (d single) CollectionNames(db string) []string { return d.srv.CollectionNames(db) }
func (d single) Status() mongod.ServerStatus        { return d.srv.Status() }
func (d single) Server() *mongod.Server             { return d.srv }
func (d single) Members() []*bson.Doc               { return nil }
func (d single) Close() error                       { return closeDurable(d.Checkpoint, d.srv) }

func (d single) ShardCollection(string, string, *bson.Doc) error {
	return errors.New("shardCollection requires a query router (docstored -shards)")
}

// CheckWriteConcern refuses w > 1: no second member could acknowledge it.
// {w: "majority"} is the one member and passes.
func (d single) CheckWriteConcern(wc storage.WriteConcern) error {
	if wc.W > 1 {
		return fmt.Errorf("writeConcern {w: %d} requires a replica set; this server is standalone", wc.W)
	}
	return nil
}

func (d single) Checkpoint() (*bson.Doc, int, error) {
	st, err := d.srv.Checkpoint()
	if err != nil {
		return nil, 0, err
	}
	return checkpointDoc(st), 1, nil
}

// replicated is a replica set as a deployment: its primary, as a single,
// serves reads, stats and checkpoints, and every write goes through the set
// so that its acknowledgement can wait on a quorum.
type replicated struct {
	single
	rs    *replset.ReplicaSet
	oplog *wal.WAL // the set's oplog log when Open attached one; Close closes it
}

// NewReplicated serves a replica set from the primary it has now.
func NewReplicated(rs *replset.ReplicaSet) Deployment {
	return &replicated{single: single{rs.Primary()}, rs: rs}
}

func (d *replicated) Store(db string) Store {
	return &setStore{Standalone: Standalone{DB: d.srv.Database(db)}, rs: d.rs}
}
func (d *replicated) CheckWriteConcern(storage.WriteConcern) error { return nil } // the set answers w itself
func (d *replicated) Members() []*bson.Doc                         { return d.rs.HealthDocs() }

// Close closes the set first: that fails any write still waiting on a
// quorum and stops the appliers before the logs under them close.
func (d *replicated) Close() error {
	d.rs.Close()
	var err error
	if d.oplog != nil {
		err = d.oplog.Close()
	}
	return errors.Join(err, d.single.Close())
}

// setStore is a database of a replica set's primary whose writes go through
// the set.
type setStore struct {
	Standalone
	rs *replset.ReplicaSet
}

func (s *setStore) Insert(coll string, doc *bson.Doc) (any, error) {
	return s.rs.Insert(s.DB.Name(), coll, doc)
}

func (s *setStore) InsertMany(coll string, docs []*bson.Doc) ([]any, error) {
	res := s.BulkWrite(coll, storage.InsertOps(docs), storage.BulkOptions{Ordered: true})
	return res.CompactInsertedIDs(), res.FirstError()
}

func (s *setStore) BulkWrite(coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	return s.rs.BulkWrite(s.DB.Name(), coll, ops, opts)
}

func (s *setStore) Update(coll string, spec query.UpdateSpec) (storage.UpdateResult, error) {
	return s.rs.Update(s.DB.Name(), coll, spec)
}

// routed is a query router over shards as a deployment.
type routed struct {
	front  *mongod.Server
	router *mongos.Router
}

// NewRouted serves a router's shards. front is the server the deployment
// reports as itself (Server); docstored's holds no data.
func NewRouted(front *mongod.Server, router *mongos.Router) Deployment {
	return routed{front: front, router: router}
}

func (d routed) Store(db string) Store  { return NewSharded(d.router, db) }
func (d routed) OrderedInserts() bool   { return false }
func (d routed) Server() *mongod.Server { return d.front }
func (d routed) Members() []*bson.Doc   { return d.router.HealthDocs() }
func (d routed) Close() error           { return closeDurable(d.Checkpoint, d.shards()...) }

// CheckWriteConcern passes w > 1 only when every shard is a replica set.
func (d routed) CheckWriteConcern(wc storage.WriteConcern) error {
	if wc.W > 1 && d.router.Replicated() {
		return nil
	}
	return single{}.CheckWriteConcern(wc)
}

func (d routed) CollectionNames(db string) []string {
	var names []string
	for _, shard := range d.shards() {
		names = append(names, shard.CollectionNames(db)...)
	}
	sort.Strings(names)
	return slices.Compact(names)
}

func (d routed) Status() mongod.ServerStatus {
	st := mongod.ServerStatus{Name: d.front.Name()}
	dbs := make(map[string]bool)
	for _, shard := range d.shards() {
		ss := shard.Status()
		st.Documents += ss.Documents
		st.DataSizeBytes += ss.DataSizeBytes
		st.IndexSizeBytes += ss.IndexSizeBytes
		st.Engine.Add(ss.Engine)
		for _, db := range shard.DatabaseNames() {
			dbs[db] = true
		}
	}
	st.Databases = len(dbs)
	for db := range dbs {
		st.Collections += len(d.CollectionNames(db))
	}
	return st
}

// Checkpoint takes one cluster-consistent capture and reports it per shard
// in name order.
func (d routed) Checkpoint() (*bson.Doc, int, error) {
	st, err := d.router.Checkpoint()
	if err != nil {
		return nil, 0, err
	}
	names := d.router.ShardNames()
	sort.Strings(names)
	shards := bson.NewDoc(len(names))
	for _, name := range names {
		shards.Set(name, checkpointDoc(st.Shards[name]))
	}
	return bson.D("shards", shards), len(names), nil
}

func (d routed) ShardCollection(db, coll string, keys *bson.Doc) error {
	if keys == nil {
		return errors.New("keys is required")
	}
	_, err := d.router.EnableSharding(db, coll, keys)
	return err
}

// shards returns the shards' primaries in registration order.
func (d routed) shards() []*mongod.Server {
	names := d.router.ShardNames()
	shards := make([]*mongod.Server, len(names))
	for i, name := range names {
		shards[i] = d.router.Shard(name)
	}
	return shards
}

// Config describes the deployment Open builds: docstored's flags.
type Config struct {
	// Name names the server, or a router's front; members and shards are
	// named after it.
	Name     string
	RAMBytes int64
	// Durability, when its Dir is set, makes every server holding data
	// durable: a stand-alone server or a set's primary in Dir, with the
	// set's oplog in Dir/oplog under the same log options, and shard i in
	// Dir/shard<i>.
	Durability mongod.Durability
	// Replicas > 1 runs a replica set: the server as primary plus
	// Replicas-1 in-memory secondaries. Shards > 0 runs a router over that
	// many shard servers instead; the two are mutually exclusive.
	Replicas, Shards int
}

// durable makes srv durable under Dir/sub, when Dir is set.
func (c Config) durable(srv *mongod.Server, sub string) error {
	if c.Durability.Dir == "" {
		return nil
	}
	d := c.Durability
	d.Dir = filepath.Join(d.Dir, sub)
	if _, err := srv.EnableDurability(d); err != nil {
		return fmt.Errorf("durability of %s: %w", srv.Name(), err)
	}
	return nil
}

// Open builds the deployment cfg describes. A durable one recovers what
// its data directory holds: each server its last checkpoint plus its log,
// and a replica set its oplog, whose entries the secondaries then replay.
func Open(cfg Config) (Deployment, error) {
	if cfg.Shards > 0 && cfg.Replicas > 1 {
		return nil, errors.New("shards and replicas > 1 are mutually exclusive")
	}
	srv := mongod.NewServer(mongod.Options{Name: cfg.Name, RAMBytes: cfg.RAMBytes})
	if cfg.Shards > 0 {
		d := routed{front: srv, router: mongos.NewRouter(sharding.NewConfigServer(), mongos.Options{Parallel: true})}
		for i := 0; i < cfg.Shards; i++ {
			shard := mongod.NewServer(mongod.Options{Name: fmt.Sprintf("%s-shard%d", cfg.Name, i)})
			if err := cfg.durable(shard, fmt.Sprintf("shard%d", i)); err != nil {
				for _, opened := range d.shards() {
					opened.CloseDurability() // the error that matters is err
				}
				return nil, err
			}
			d.router.AddShard(shard.Name(), shard)
		}
		return d, nil
	}
	if err := cfg.durable(srv, ""); err != nil {
		return nil, err
	}
	if cfg.Replicas <= 1 {
		return single{srv}, nil
	}
	members := []*mongod.Server{srv}
	for i := 1; i < cfg.Replicas; i++ {
		members = append(members, mongod.NewServer(mongod.Options{Name: fmt.Sprintf("%s-sec%d", cfg.Name, i)}))
	}
	rs, _ := replset.New(cfg.Name, members...) // fails only without members
	d := &replicated{single: single{srv}, rs: rs}
	if cfg.Durability.Dir != "" {
		var err error
		if d.oplog, err = openOplog(rs, cfg.Durability); err != nil {
			srv.CloseDurability()
			return nil, err
		}
	}
	srv.Metrics().AddGaugeSource("", rs.HealthGauges)
	rs.StartReplication()
	return d, nil
}

// openOplog reloads the set's oplog from Dir/oplog, so replication
// resumes where the last process stopped, and attaches that log to the set.
// The primary rebuilt its state through its own recovery, so it is marked
// caught up; the in-memory secondaries replay from the start.
func openOplog(rs *replset.ReplicaSet, d mongod.Durability) (*wal.WAL, error) {
	dir := filepath.Join(d.Dir, "oplog")
	n, err := rs.LoadOplogFromWAL(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("reloading the oplog: %w", err)
	}
	if n > 0 {
		entries := rs.Oplog()
		rs.MarkApplied(rs.Primary().Name(), entries[len(entries)-1].Seq())
	}
	w, err := wal.Open(wal.Options{
		Dir:                 dir,
		Sync:                d.Sync,
		GroupCommitInterval: d.GroupCommitInterval,
		SegmentMaxBytes:     d.SegmentMaxBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("opening the oplog: %w", err)
	}
	rs.AttachWAL(w)
	return w, nil
}
