package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"docstore/benchmark/internal/stats"
	"docstore/internal/bson"
	"docstore/internal/index"
	"docstore/internal/mongod"
	"docstore/internal/query"
	"docstore/internal/replset"
	"docstore/internal/storage"
	"docstore/internal/wal"
	"docstore/internal/wire"
)

// The layer probes time each engine layer's public functions on a sample of
// the workload's own documents, innermost layer first, so that an outer
// layer's self time is its probe minus the next inner one's: wire.rtt_us -
// wire.handle_us is transport, wire.handle_us - mongod.find_us is wire
// framing, mongod.find_us - storage.find_us is dispatch, and storage.find_us
// is what index.lookup_ns, query.match_ns and document cloning add up to.
// They run once, single-threaded, after the traced load has stopped. A
// workload runs the probes of the layers it has: engineProbes everywhere,
// servingProbes on the wire workloads, probeReplset on ingest_replicated.

const (
	// probeDocs is the sample size; probeOps how many timed calls a probe
	// makes when each call is timed on its own.
	probeDocs = 2000
	probeOps  = 400
	probeDB   = "probe"
	probeColl = "sample"
)

// probeSample is what a workload hands the probes.
type probeSample struct {
	docs []*bson.Doc
	// key is an indexed scalar field: point lookups filter on it.
	key string
}

// keyOf returns document i's key value, wrapping around the sample.
func (s probeSample) keyOf(i int) any { return s.docs[i%len(s.docs)].GetOr(s.key, nil) }

func (s probeSample) pointFilter(i int) *bson.Doc { return bson.D(s.key, s.keyOf(i)) }

// clones copies the sample, so a scratch collection never shares documents
// with the live deployment. base > 0 also renumbers the _ids from base.
func (s probeSample) clones(base int) []*bson.Doc {
	out := make([]*bson.Doc, len(s.docs))
	for i, d := range s.docs {
		out[i] = d.Clone()
		if base > 0 {
			out[i].Set(bson.IDKey, base+i)
		}
	}
	return out
}

// each times n calls of f one by one and returns the median, in unit.
func each(n int, unit time.Duration, f func(i int) error) (float64, error) {
	times := make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		times[i] = float64(time.Since(start)) / float64(unit)
	}
	return stats.Median(times), nil
}

// batched times rounds of batch calls each — for calls too short to time
// singly — and returns the median nanoseconds per call.
func batched(rounds, batch int, f func(i int)) float64 {
	times := make([]float64, rounds)
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f(r*batch + i)
		}
		times[r] = float64(time.Since(start)) / float64(batch)
	}
	return stats.Median(times)
}

type probe func(*report, probeSample, string) error

var (
	engineProbes  = []probe{probeBSON, probeQuery, probeIndex, probeStorage, probeMongod}
	servingProbes = []probe{probeWire, probeWAL, probeChangeStream}
)

func runProbes(cfg config, rep *report, s probeSample, probes ...[]probe) error {
	if len(s.docs) == 0 {
		return fmt.Errorf("probes: the workload's sample is empty")
	}
	dir, err := scratchDir(cfg, "probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, set := range probes {
		for _, probe := range set {
			if err := probe(rep, s, dir); err != nil {
				return err
			}
		}
	}
	return nil
}

func probeBSON(rep *report, s probeSample, _ string) error {
	docs := s.docs
	if len(docs) > 500 {
		docs = docs[:500]
	}
	kb := 0.0
	for _, d := range docs {
		kb += float64(bson.EncodedSize(d)) / 1024
	}
	jsons := make([][]byte, len(docs))
	for i, d := range docs {
		jsons[i] = []byte(d.ToJSON())
	}
	perKB := float64(len(docs)) / kb
	detail := fmt.Sprintf("%d sampled documents, %.1f KB encoded", len(docs), kb)
	rep.add("bson.to_json_ns_per_kb", batched(7, len(docs), func(i int) { _ = docs[i%len(docs)].ToJSON() })*perKB, "ns", detail)
	var decodeErr error
	rep.add("bson.from_json_ns_per_kb", batched(7, len(docs), func(i int) {
		if _, err := bson.FromJSON(jsons[i%len(docs)]); err != nil {
			decodeErr = err
		}
	})*perKB, "ns", detail)
	rep.add("bson.encode_ns_per_kb", batched(7, len(docs), func(i int) { _ = bson.Marshal(docs[i%len(docs)]) })*perKB, "ns", detail)
	return decodeErr
}

func probeQuery(rep *report, s probeSample, _ string) error {
	var compileErr error
	rep.add("query.compile_ns", batched(9, 200, func(i int) {
		if _, err := query.Compile(s.pointFilter(i)); err != nil {
			compileErr = err
		}
	}), "ns", fmt.Sprintf("compiling {%s: v}, filter construction included", s.key))
	if compileErr != nil {
		return compileErr
	}
	m, err := query.Compile(s.pointFilter(0))
	if err != nil {
		return err
	}
	rep.add("query.match_ns", batched(9, len(s.docs), func(i int) { m.Matches(s.docs[i%len(s.docs)]) }), "ns", "one compiled point filter against each sampled document")
	return nil
}

func probeIndex(rep *report, s probeSample, _ string) error {
	spec, err := index.ParseSpec(bson.D(s.key, 1))
	if err != nil {
		return err
	}
	var ix *index.Index
	var insertErr error
	insertNs := batched(5, len(s.docs), func(i int) {
		if i%len(s.docs) == 0 {
			ix = index.New("probe", spec, false)
		}
		if err := ix.Insert(s.docs[i%len(s.docs)], i); err != nil {
			insertErr = err
		}
	})
	if insertErr != nil {
		return insertErr
	}
	rep.add("index.insert_ns", insertNs, "ns", fmt.Sprintf("building an index on %s over %d documents", s.key, len(s.docs)))
	rep.add("index.lookup_ns", batched(9, 1000, func(i int) { ix.Lookup(s.keyOf(i)) }), "ns", "point lookups in that index")
	rep.add("index.tree_b_per_key", float64(ix.TreeBytes())/float64(ix.Len()), "B", fmt.Sprintf("%d tree bytes over %d entries", ix.TreeBytes(), ix.Len()))
	return nil
}

func probeStorage(rep *report, s probeSample, _ string) error {
	coll := storage.NewCollection(probeColl)
	if _, err := coll.InsertMany(s.clones(0)); err != nil {
		return err
	}
	if _, err := coll.EnsureIndexDoc(bson.D(s.key, 1), false); err != nil {
		return err
	}
	find, err := each(probeOps, time.Microsecond, func(i int) error {
		_, err := coll.Find(s.pointFilter(i), storage.FindOptions{})
		return err
	})
	if err != nil {
		return err
	}
	rep.add("storage.find_us", find, "us", "indexed point find on a scratch collection of the sample")
	scan, err := each(probeOps, time.Microsecond, func(i int) error {
		_, err := coll.Find(bson.D(s.key, bson.D("$gte", s.keyOf(i))), storage.FindOptions{Limit: scanLimit})
		return err
	})
	if err != nil {
		return err
	}
	rep.add("storage.scan_us", scan, "us", fmt.Sprintf("index range scan, limit %d", scanLimit))
	before := coll.EngineStats()
	update, err := each(probeOps, time.Microsecond, func(i int) error {
		_, err := coll.UpdateOne(s.pointFilter(i), bson.D("$inc", bson.D("probe_v", 1)))
		return err
	})
	if err != nil {
		return err
	}
	after := coll.EngineStats()
	rep.add("storage.update_us", update, "us", "indexed single-document $inc")
	rep.add("storage.cow_b_per_write", float64(after.COWBytesCopied-before.COWBytesCopied)/probeOps, "B", "record bytes copied by page copy-on-write per update")
	rep.add("storage.pages_copied_per_write", float64(after.PagesCopied-before.PagesCopied)/probeOps, "count", "pages copied per update")
	rep.add("storage.tree_b_copied_per_write", float64(after.TreeBytesCopied-before.TreeBytesCopied)/probeOps, "B", "index tree bytes path-copied per update")
	return nil
}

// probeServer loads the sample into a fresh server with the key indexed.
func probeServer(s probeSample) (*mongod.Server, error) {
	server := mongod.NewServer(mongod.Options{Name: "probe"})
	db := server.Database(probeDB)
	if _, err := db.InsertMany(probeColl, s.clones(0)); err != nil {
		return nil, err
	}
	_, err := db.EnsureIndex(probeColl, bson.D(s.key, 1), false)
	return server, err
}

// probeMongod times the storage probe's point finds through mongod.Database.
func probeMongod(rep *report, s probeSample, _ string) error {
	server, err := probeServer(s)
	if err != nil {
		return err
	}
	db := server.Database(probeDB)
	find, err := each(probeOps, time.Microsecond, func(i int) error {
		_, err := db.Find(probeColl, s.pointFilter(i), storage.FindOptions{})
		return err
	})
	if err != nil {
		return err
	}
	rep.add("mongod.find_us", find, "us", "the same point find through mongod.Database")
	return nil
}

// probeWire times the same point finds through wire.Server.Handle in-process
// and through a TCP loopback round trip.
func probeWire(rep *report, s probeSample, _ string) error {
	server, err := probeServer(s)
	if err != nil {
		return err
	}
	srv := wire.NewServer(server)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	request := func(i int) *wire.Request {
		return &wire.Request{Op: wire.OpFind, DB: probeDB, Collection: probeColl, Filter: s.pointFilter(i)}
	}
	payload := 0
	handle, err := each(probeOps, time.Microsecond, func(i int) error {
		resp := srv.Handle(request(i))
		if !resp.OK {
			return fmt.Errorf("probe: wire handle: %s", resp.Error)
		}
		for _, d := range resp.Docs {
			payload += len(d.ToJSON())
		}
		return nil
	})
	if err != nil {
		return err
	}
	c, err := wire.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	rtt, err := each(probeOps, time.Microsecond, func(i int) error {
		_, err := c.Do(request(i))
		return err
	})
	if err != nil {
		return err
	}
	rep.add("wire.handle_us", handle, "us", "the same point find through wire.Server.Handle, in-process")
	rep.add("wire.rtt_us", rtt, "us", "the same point find over TCP loopback, one connection")
	rep.add("wire.transport_us", rtt-handle, "us", "rtt minus handle: JSON framing on both ends plus the loopback")
	rep.add("wire.bytes_per_op", float64(payload)/probeOps, "B", "JSON bytes of the documents one reply carries")
	return nil
}

func probeWAL(rep *report, s probeSample, dir string) (err error) {
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncGroupCommit})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}()
	record := func(i int) *wal.Record {
		return &wal.Record{Kind: wal.KindBatch, DB: probeDB, Coll: probeColl, Ordered: true,
			Ops: []storage.WriteOp{storage.InsertWriteOp(s.docs[i%len(s.docs)])}}
	}
	appendUS, err := each(probeOps, time.Microsecond, func(i int) error {
		_, err := w.Append(record(i))
		return err
	})
	if err != nil {
		return err
	}
	rep.add("wal.append_us", appendUS, "us", "encoding and buffering one single-insert record, no wait")
	commitUS, err := each(probeOps/2, time.Microsecond, func(i int) error {
		commit, err := w.Append(record(i))
		if err != nil {
			return err
		}
		return commit.Wait(true)
	})
	if err != nil {
		return err
	}
	rep.add("wal.fsync_p50_us", commitUS, "us", "median append plus wait for the group-commit fsync that covers it, one writer; this sandbox's page cache, not a device")
	return nil
}

// probeReplset times a {w: "majority", j: true} insert through a 3-member
// replica set with a WAL-backed oplog against the same insert on a lone
// server: the difference is the oplog fsync plus the quorum wait.
func probeReplset(rep *report, s probeSample, dir string) error {
	members := make([]*mongod.Server, 3)
	for i := range members {
		members[i] = mongod.NewServer(mongod.Options{Name: fmt.Sprintf("probe-m%d", i)})
	}
	rs, err := replset.New("probe", members...)
	if err != nil {
		return err
	}
	oplog, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "oplog"), Sync: wal.SyncGroupCommit})
	if err != nil {
		return err
	}
	rs.AttachWAL(oplog)
	rs.StartReplication()
	docs := s.clones(1)
	insert := func(i int) []storage.WriteOp { return []storage.WriteOp{storage.InsertWriteOp(docs[i].Clone())} }
	n := probeOps / 2
	acked, err := each(n, time.Microsecond, func(i int) error {
		res := rs.BulkWrite(probeDB, probeColl, insert(i), storage.BulkOptions{Ordered: true, WriteConcern: storage.WriteConcern{Majority: true, Journal: true}})
		return res.FirstError()
	})
	rs.Close()
	if cerr := oplog.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	lone := mongod.NewServer(mongod.Options{Name: "probe-lone"}).Database(probeDB)
	alone, err := each(n, time.Microsecond, func(i int) error {
		res := lone.BulkWrite(probeColl, insert(i), storage.BulkOptions{Ordered: true})
		return res.FirstError()
	})
	if err != nil {
		return err
	}
	rep.add("replset.ack_wait_us", acked-alone, "us", fmt.Sprintf("majority+j insert %.4g us minus the same insert on a lone server %.4g us", acked, alone))
	return nil
}

// probeChangeStream times from a write's acknowledgement to its event
// arriving on an in-process subscription.
func probeChangeStream(rep *report, s probeSample, dir string) (err error) {
	server := mongod.NewServer(mongod.Options{Name: "probe-cs"})
	if _, err := server.EnableDurability(mongod.Durability{Dir: filepath.Join(dir, "cs"), Sync: wal.SyncGroupCommit}); err != nil {
		return err
	}
	defer func() {
		if cerr := server.CloseDurability(); err == nil {
			err = cerr
		}
	}()
	sub, err := server.Watch(probeDB, probeColl, mongod.WatchOptions{})
	if err != nil {
		return err
	}
	defer sub.Close() // runs before CloseDurability, which tears the broker down
	docs := s.clones(1)
	db := server.Database(probeDB)
	times := make([]float64, probeOps/2)
	for i := range times {
		if _, err := db.Insert(probeColl, docs[i]); err != nil {
			return err
		}
		acked := time.Now()
		if _, err := sub.Next(5 * time.Second); err != nil {
			return err
		}
		times[i] = float64(time.Since(acked)) / float64(time.Microsecond)
	}
	rep.add("changestream.deliver_us", stats.Median(times), "us", "from an insert's acknowledgement to its event on an in-process Watch")
	return nil
}
