package main

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"docstore/benchmark/internal/loadgen"
	"docstore/benchmark/internal/span"
	"docstore/benchmark/internal/stats"
	"docstore/internal/bson"
	"docstore/internal/mongod"
	"docstore/internal/replset"
	"docstore/internal/storage"
	"docstore/internal/wal"
	"docstore/internal/wire"
)

// The wire workloads drive an in-process server over real TCP loopback with
// the docstored shapes: oltp_wire is `docstored -data-dir` (one durable
// server, group commit), ingest_replicated is `docstored -data-dir
// -replicas 3` (WAL-backed oplog, every write {w: "majority", j: true}).
// An operation is one request. The operation classes, in the order the
// mixes draw them: oltp_wire has point find {k} (85 %), index scan {g} with
// limit 20 (5 %) and update {k} $inc v (10 %); ingest_replicated has insert
// (70 %) and $set on an acknowledged _id (30 %).
const (
	oltpFind, oltpScan, oltpUpdate = 0, 1, 2
	ingestInsert, ingestSet        = 0, 1
)

const (
	wireDB      = "bench"
	wireColl    = "items"
	wireClients = 2
	// Open-loop rates of the traced run, requests per second: 40 % of what
	// the closed loop sustains on the seed commit. ingest_replicated ran a
	// backlog at 2500/s (README.md, "Closed and open loop").
	oltpRate   = 6000.0
	ingestRate = 1500.0
	// Latency limits at those rates, on the open loop's p99.
	readLimit  = 2 * time.Millisecond
	writeLimit = 10 * time.Millisecond
	warmUp     = time.Second
	scanLimit  = 20
	scanGroups = 1000
	wireSetups = 3
	// recoveries is how many times ingest_replicated recovers a copy of the
	// data directory; the reported time is the median.
	recoveries = 3
	zipfS      = 1.1
)

// wireEnv is one running deployment.
type wireEnv struct {
	dir     string
	backend *mongod.Server
	rs      *replset.ReplicaSet
	oplog   *wal.WAL
	srv     *wire.Server
	addr    string
}

// startWire boots the server on 127.0.0.1:0 over a fresh data directory.
func startWire(dir string, replicated bool) (*wireEnv, error) {
	e := &wireEnv{dir: dir, backend: mongod.NewServer(mongod.Options{Name: "bench"})}
	if _, err := e.backend.EnableDurability(mongod.Durability{Dir: dir, Sync: wal.SyncGroupCommit}); err != nil {
		return nil, err
	}
	e.srv = wire.NewServer(e.backend)
	if replicated {
		members := []*mongod.Server{e.backend}
		for i := 1; i < 3; i++ {
			members = append(members, mongod.NewServer(mongod.Options{Name: fmt.Sprintf("bench-sec%d", i)}))
		}
		rs, err := replset.New("bench", members...)
		if err != nil {
			return nil, err
		}
		oplog, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "oplog"), Sync: wal.SyncGroupCommit})
		if err != nil {
			return nil, err
		}
		rs.AttachWAL(oplog)
		rs.StartReplication()
		e.rs, e.oplog = rs, oplog
		e.srv.SetReplicaSet(rs)
	}
	addr, err := e.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = addr
	return e, nil
}

// close stops the deployment in docstored's order, waits for it and removes
// its data directory.
func (e *wireEnv) close() error {
	defer os.RemoveAll(e.dir)
	err := e.srv.Close()
	if e.rs != nil {
		e.rs.Close()
		if cerr := e.oplog.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := e.backend.CloseDurability(); err == nil {
		err = cerr
	}
	return err
}

// walStats sums the append and fsync counters of the server's WAL and, when
// replicated, the oplog's.
func (e *wireEnv) walStats() wal.Stats {
	_, _, st, _ := e.backend.WALHealth()
	if e.oplog != nil {
		o := e.oplog.Stats()
		st.Appends += o.Appends
		st.Syncs += o.Syncs
	}
	return st
}

// caughtUp waits until every secondary has applied the whole oplog.
func (e *wireEnv) caughtUp() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		behind := int64(0)
		for _, lag := range e.rs.ReplicationLag() {
			behind += lag
		}
		if behind == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("secondaries still %d entries behind after 30 s", behind)
		}
		time.Sleep(time.Millisecond)
	}
}

func itemDoc(id int64, pad string) *bson.Doc {
	return bson.D(bson.IDKey, id, "k", id, "g", id%scanGroups, "v", 0, "pad", pad)
}

// padFor derives the 48-byte payload from the seed.
func padFor(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 48)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// loadItems builds the two secondary indexes and bulk-loads docs documents
// through the wire in batches of 1000, as a client would.
func loadItems(e *wireEnv, docs int, pad string) error {
	c, err := wire.Dial(e.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.EnsureIndex(wireDB, wireColl, bson.D("k", 1), true); err != nil {
		return err
	}
	if err := c.EnsureIndex(wireDB, wireColl, bson.D("g", 1), false); err != nil {
		return err
	}
	for lo := 0; lo < docs; lo += 1000 {
		batch := make([]*bson.Doc, 0, 1000)
		for id := lo; id < lo+1000 && id < docs; id++ {
			batch = append(batch, itemDoc(int64(id), pad))
		}
		if n, err := c.InsertMany(wireDB, wireColl, batch); err != nil || int(n) != len(batch) {
			return fmt.Errorf("bulk load at %d: inserted %d of %d: %v", lo, n, len(batch), err)
		}
	}
	if e.rs != nil {
		return e.caughtUp()
	}
	return nil
}

// wireWorker is one client connection and its share of the workload state.
type wireWorker struct {
	c          *wire.Client
	rng        *rand.Rand
	zipf       *rand.Zipf
	replicated bool
	docs       int64
	pad        string
	rec        *span.Recorder
	// nextID is the next _id of this worker's own insert range.
	nextID int64
	// ackedIDs are the _ids whose insert was acknowledged to this worker.
	ackedIDs []int64
	// setSeq makes every $set write a new value, so each one modifies.
	setSeq                      int64
	ackedUpdates, ackedInserted int64
	// returned counts documents the server sent back, userBytes the bytes
	// of documents and update specs the client asked it to store.
	returned, userBytes int64
}

var majorityJournaled = bson.D("w", "majority", "j", true)

// do sends one request; traced, it records the operation's span from its due
// time and the client call beneath it.
func (w *wireWorker) do(req *wire.Request, r loadgen.Request) (*wire.Response, error) {
	if w.replicated {
		req.WriteConcern = majorityJournaled
	}
	if w.rec == nil {
		return w.c.Do(req)
	}
	op := w.rec.Start("loadgen.op", 0, r.Seq, r.Due)
	call := w.rec.Start("wire.Client.Do", op, r.Seq, time.Now())
	resp, err := w.c.Do(req)
	now := time.Now()
	w.rec.End(call, now)
	w.rec.End(op, now)
	return resp, err
}

func (w *wireWorker) newDoc() *bson.Doc {
	w.nextID++
	d := itemDoc(w.nextID, w.pad)
	w.userBytes += int64(bson.EncodedSize(d))
	return d
}

func intField(d *bson.Doc, key string) int64 {
	n, _ := bson.AsInt(d.GetOr(key, nil))
	return n
}

// oltpOp is one request of the OLTP mix. Every reply is checked.
func (w *wireWorker) oltpOp(r loadgen.Request) loadgen.Outcome {
	key := int64(w.zipf.Uint64())
	switch p := w.rng.Intn(100); {
	case p < 85:
		resp, err := w.do(&wire.Request{Op: wire.OpFind, DB: wireDB, Collection: wireColl, Filter: bson.D("k", key)}, r)
		ok := err == nil && len(resp.Docs) == 1 && intField(resp.Docs[0], "k") == key
		w.returned += int64(lenDocs(resp))
		return loadgen.Outcome{Class: oltpFind, OK: ok}
	case p < 90:
		g := key % scanGroups
		resp, err := w.do(&wire.Request{Op: wire.OpFind, DB: wireDB, Collection: wireColl, Filter: bson.D("g", g), Limit: scanLimit}, r)
		// Nothing inserts or deletes: group g holds the documents loaded
		// into it, and the scan returns all of them up to the limit.
		want := w.docs / scanGroups
		if g < w.docs%scanGroups {
			want++
		}
		if want > scanLimit {
			want = scanLimit
		}
		ok := err == nil && int64(len(resp.Docs)) == want
		for i := 0; ok && i < len(resp.Docs); i++ {
			ok = intField(resp.Docs[i], "g") == g
		}
		w.returned += int64(lenDocs(resp))
		return loadgen.Outcome{Class: oltpScan, OK: ok}
	default:
		update := bson.D("$inc", bson.D("v", 1))
		resp, err := w.do(&wire.Request{Op: wire.OpUpdate, DB: wireDB, Collection: wireColl, Filter: bson.D("k", key), Update: update}, r)
		ok := err == nil && resp.N == 1
		if ok {
			w.ackedUpdates++
			w.userBytes += int64(bson.EncodedSize(update))
		}
		return loadgen.Outcome{Class: oltpUpdate, OK: ok}
	}
}

// ingestOp is one request of the ingest mix.
func (w *wireWorker) ingestOp(r loadgen.Request) loadgen.Outcome {
	if w.rng.Intn(100) < 70 {
		doc := w.newDoc()
		resp, err := w.do(&wire.Request{Op: wire.OpInsert, DB: wireDB, Collection: wireColl, Doc: doc}, r)
		ok := err == nil && resp.N == 1
		if ok {
			w.ackedInserted++
			w.ackedIDs = append(w.ackedIDs, w.nextID)
		}
		return loadgen.Outcome{Class: ingestInsert, OK: ok}
	}
	// An acknowledged _id: one of this worker's own inserts when it has any,
	// else one of the bulk-loaded documents.
	id := w.rng.Int63n(w.docs)
	if n := len(w.ackedIDs); n > 0 && w.rng.Intn(2) == 0 {
		id = w.ackedIDs[w.rng.Intn(n)]
	}
	w.setSeq++
	update := bson.D("$set", bson.D("v", w.setSeq*wireClients+int64(r.Worker)))
	resp, err := w.do(&wire.Request{Op: wire.OpUpdate, DB: wireDB, Collection: wireColl, Filter: bson.D(bson.IDKey, id), Update: update}, r)
	ok := err == nil && resp.N == 1
	if ok {
		w.ackedUpdates++
		w.userBytes += int64(bson.EncodedSize(update))
	}
	return loadgen.Outcome{Class: ingestSet, OK: ok}
}

func lenDocs(r *wire.Response) int {
	if r == nil {
		return 0
	}
	return len(r.Docs)
}

// wireRun is a deployment with its connected workers.
type wireRun struct {
	env        *wireEnv
	replicated bool
	workers    []*wireWorker
	seq        atomic.Int64
}

func newWireRun(cfg config, env *wireEnv, replicated bool, docs int, pad string) (*wireRun, error) {
	run := &wireRun{env: env, replicated: replicated}
	for i := 0; i < wireClients; i++ {
		c, err := wire.Dial(env.addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(i)))
		run.workers = append(run.workers, &wireWorker{
			c: c, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(docs-1)),
			replicated: replicated, docs: int64(docs), pad: pad,
			// Each worker inserts into its own _id range above the load.
			nextID: int64(docs) + int64(i+1)*1_000_000_000,
		})
	}
	return run, nil
}

func (run *wireRun) closeClients() {
	for _, w := range run.workers {
		w.c.Close()
	}
}

func (run *wireRun) setRecorder(rec *span.Recorder) {
	for _, w := range run.workers {
		w.rec = rec
	}
}

func (run *wireRun) op(r loadgen.Request) loadgen.Outcome {
	if run.replicated {
		return run.workers[r.Worker].ingestOp(r)
	}
	return run.workers[r.Worker].oltpOp(r)
}

func (run *wireRun) closed(d time.Duration) []loadgen.Result {
	return loadgen.Closed(loadgen.Wall, wireClients, d, &run.seq, run.op)
}

func (run *wireRun) open(d time.Duration) []loadgen.Result {
	rate := oltpRate
	if run.replicated {
		rate = ingestRate
	}
	return loadgen.Open(loadgen.Wall, wireClients, rate, d, &run.seq, run.op)
}

func (run *wireRun) totals() (updates, inserted, returned, userBytes int64) {
	for _, w := range run.workers {
		updates += w.ackedUpdates
		inserted += w.ackedInserted
		returned += w.returned
		userBytes += w.userBytes
	}
	return
}

// isWrite reports whether a class of the workload writes.
func (run *wireRun) isWrite(class int) bool { return run.replicated || class == oltpUpdate }

func (run *wireRun) limit(class int) time.Duration {
	if run.isWrite(class) {
		return writeLimit
	}
	return readLimit
}

// check runs the end-of-run correctness checks over a fresh connection.
func (run *wireRun) check(rep *report, docs int) error {
	c, err := wire.Dial(run.env.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	updates, inserted, _, _ := run.totals()
	want := int64(docs) + inserted
	n, err := c.Count(wireDB, wireColl, nil)
	if err != nil {
		return err
	}
	if n != want {
		rep.problem("primary holds %d documents, want %d loaded + %d acknowledged inserts", n, docs, inserted)
	}
	if !run.replicated {
		// Every acknowledged $inc added one to some v, and nothing else
		// writes v: the sum of v is the acknowledged-update count.
		out, err := c.Aggregate(wireDB, wireColl, []*bson.Doc{bson.D("$group", bson.D(bson.IDKey, nil, "s", bson.D("$sum", "$v")))})
		if err != nil {
			return err
		}
		if len(out) != 1 || intField(out[0], "s") != updates {
			rep.problem("sum of v is %v, want the %d acknowledged updates", out, updates)
		}
		return nil
	}
	if err := run.env.caughtUp(); err != nil {
		rep.problem("%v", err)
	}
	for _, m := range run.env.rs.Secondaries() {
		if got := int64(m.Database(wireDB).Collection(wireColl).Count()); got != want {
			rep.problem("secondary %s converged to %d documents, primary has %d", m.Name(), got, want)
		}
	}
	return nil
}

// checkRecovery recovers a fresh server from a copy of the data directory,
// times times over, checks that each restored every loaded and every
// acknowledged document, and returns the recovery times in seconds and the
// document count.
func (run *wireRun) checkRecovery(rep *report, docs, times int) (seconds []float64, recovered int64, err error) {
	_, inserted, _, _ := run.totals()
	for i := 0; i < times; i++ {
		var s float64
		if s, recovered, err = recoverCopy(run.env.dir); err != nil {
			return nil, 0, err
		}
		if want := int64(docs) + inserted; recovered != want {
			rep.problem("recovery from the copied data directory restored %d documents, want %d", recovered, want)
		}
		seconds = append(seconds, s)
	}
	return seconds, recovered, nil
}

// recoverCopy copies the data directory as it stands — everything
// acknowledged has been fsynced — boots a fresh server from the copy and
// returns how long recovery took and how many documents it restored.
func recoverCopy(dir string) (seconds float64, docs int64, err error) {
	copyDir := dir + "-copy"
	defer os.RemoveAll(copyDir)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		target := filepath.Join(copyDir, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	fresh := mongod.NewServer(mongod.Options{Name: "recovered"})
	if _, err := fresh.EnableDurability(mongod.Durability{Dir: copyDir, Sync: wal.SyncGroupCommit}); err != nil {
		return 0, 0, err
	}
	seconds = time.Since(start).Seconds()
	docs = int64(fresh.Database(wireDB).Collection(wireColl).Count())
	return seconds, docs, fresh.CloseDurability()
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// scratchDir makes a data directory under cfg.out/tmp.
func scratchDir(cfg config, name string) (string, error) {
	tmp := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, name+"-")
}

func latencySamples(results []loadgen.Result, keep func(loadgen.Result) bool) []stats.Sample {
	var out []stats.Sample
	for _, r := range results {
		if keep(r) {
			out = append(out, stats.Sample{At: r.End, Value: ms(r.Latency())})
		}
	}
	return out
}

func everyResult(loadgen.Result) bool { return true }

// throughput is completions per second, per window.
func throughput(results []loadgen.Result, d time.Duration) stats.Windowed {
	window := d.Seconds() / windows
	return stats.OverWindows(latencySamples(results, everyResult), d, windows, func(v []float64) float64 { return float64(len(v)) / window })
}

// runWire is oltp_wire or ingest_replicated.
func runWire(cfg config, rep *report, replicated bool) (err error) {
	docs := cfg.docs
	if replicated {
		docs /= 5
	}
	pad := padFor(cfg.seed)
	var env *wireEnv
	defer func() {
		if env != nil {
			if cerr := env.close(); err == nil {
				err = cerr
			}
		}
	}()
	var setupS []float64
	for i := cfg.setupCount(wireSetups); i > 0; i-- {
		if env != nil {
			if err := env.close(); err != nil {
				return err
			}
			env = nil
			runtime.GC()
		}
		dir, err := scratchDir(cfg, cfg.workload)
		if err != nil {
			return err
		}
		start := time.Now()
		if env, err = startWire(dir, replicated); err != nil {
			os.RemoveAll(dir)
			return err
		}
		if err := loadItems(env, docs, pad); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	heap := heapMB()
	run, err := newWireRun(cfg, env, replicated, docs, pad)
	if err != nil {
		return err
	}
	defer run.closeClients()
	if failed := loadgen.Failed(run.closed(warmUp)); failed > 0 {
		rep.problem("%d operations failed during warm-up", failed)
	}
	if cfg.trace {
		return traceWire(cfg, rep, run, docs, heap)
	}

	measured := cfg.measured()
	closed := run.closed(measured)
	rep.attempted = len(closed)
	rep.failed = loadgen.Failed(closed)
	if err := run.check(rep, docs); err != nil {
		return err
	}

	rep.add("setup_s", stats.Median(setupS), "s", fmt.Sprintf("median of %d set-ups %.3g; %d documents, 2 secondary indexes", len(setupS), setupS, docs))
	rep.add("heap_mb", heap, "MB", "HeapAlloc after set-up and a forced GC")
	what := fmt.Sprintf("closed loop, %d clients, %v", wireClients, measured)
	rep.addWindowed("ops_per_s", throughput(closed, measured), "1/s", "requests per second, "+what)
	p50 := func(slot, class int) {
		s := latencySamples(closed, func(r loadgen.Result) bool { return r.Class == class })
		rep.addSlot(cfg.workload, slot, stats.OverWindows(s, measured, windows, stats.P50), "median latency, "+what)
	}
	tail := func(slot, class int) {
		s := latencySamples(closed, func(r loadgen.Result) bool { return r.Class == class })
		p := stats.WindowTail(s, measured, windows, judgedTail)
		rep.addSlot(cfg.workload, slot, stats.OverWindows(s, measured, windows, stats.Tail(p)),
			fmt.Sprintf("p%g latency, %s", p*100, what))
	}
	if !replicated {
		p50(1, oltpFind)
		p50(2, oltpScan)
		p50(3, oltpUpdate)
		tail(4, oltpFind)
		tail(5, oltpUpdate)
		return nil
	}
	p50(1, ingestInsert)
	p50(2, ingestSet)
	tail(3, ingestInsert)
	tail(4, ingestSet)
	recoverS, recovered, err := run.checkRecovery(rep, docs, recoveries)
	if err != nil {
		return err
	}
	rep.add("time5_ms", stats.Median(recoverS)*1000, "ms", fmt.Sprintf("%s: a fresh server recovering %d documents from a copy of the data directory, median of %.3g s",
		slotNames[cfg.workload][4], recovered, recoverS))
	return nil
}

// sampler polls gauges that only show their peak while the load runs.
type sampler struct {
	stop chan struct{}
	done sync.WaitGroup
	// lagMax is the most oplog entries any secondary was behind;
	// versionsMax the most live versions the primary's engine tracked.
	lagMax, versionsMax int64
}

func startSampler(env *wireEnv) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if env.rs != nil {
					for _, lag := range env.rs.ReplicationLag() {
						if lag > s.lagMax {
							s.lagMax = lag
						}
					}
				}
				if v := int64(env.backend.Database(wireDB).Collection(wireColl).EngineStats().LiveVersions); v > s.versionsMax {
					s.versionsMax = v
				}
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// traceWire is the traced variant: a quarter of the time closed loop traced,
// between two untraced eighths that set the baseline, and half open loop
// traced; then the checks, recovery, and the layer probes.
func traceWire(cfg config, rep *report, run *wireRun, docs int, heap float64) error {
	env := run.env
	eighth := cfg.measured() / 8
	rec := span.NewRecorder(time.Now())
	smp := startSampler(env)
	base := run.closed(eighth)
	run.setRecorder(rec)
	goBefore := readGo()
	traced := run.closed(2 * eighth)
	goAfter := readGo()
	run.setRecorder(nil)
	base = append(base, run.closed(eighth)...)

	// The counters are read around the open loop, at its fixed rate.
	_, _, returnedBefore, userBefore := run.totals()
	walBefore := env.walStats()
	walBytesBefore := dirBytes(env.dir)
	examinedBefore := env.backend.DocsExamined()
	run.setRecorder(rec)
	open := run.open(cfg.measured() - 4*eighth)
	run.setRecorder(nil)
	smp.finish()

	rep.attempted = len(base) + len(traced) + len(open)
	rep.failed = loadgen.Failed(base) + loadgen.Failed(traced) + loadgen.Failed(open)
	spans := rec.Spans()
	if err := span.Check(spans); err != nil {
		rep.problem("trace: %v", err)
	}
	if err := span.WriteJSON(filepath.Join(cfg.out, cfg.workload+".trace.json"), spans); err != nil {
		return err
	}
	if err := run.check(rep, docs); err != nil {
		return err
	}

	baseRate, tracedRate := float64(len(base))/(2*eighth).Seconds(), float64(len(traced))/(2*eighth).Seconds()
	rep.add("bench.trace_overhead_frac", 1-tracedRate/baseRate, "frac",
		fmt.Sprintf("1 minus traced %.0f/s over untraced %.0f/s, closed loop", tracedRate, baseRate))
	goRows(rep, goBefore, goAfter, len(traced))

	lateFrac, maxLate := loadgen.Lateness(open)
	rep.add("loadgen.late_frac", lateFrac, "frac", fmt.Sprintf("open-loop requests sent over %v after they were due", loadgen.LateBy))
	rep.add("loadgen.max_late_ms", ms(maxLate), "ms", "longest an open-loop request was sent after it was due")
	rep.add("loadgen.slo_miss_frac", loadgen.MissFrac(open, run.limit), "frac",
		fmt.Sprintf("open-loop requests failed or over the limit (reads %v, writes %v)", readLimit, writeLimit))
	openFor := cfg.measured() - 4*eighth
	all := latencySamples(open, everyResult)
	openWhat := fmt.Sprintf("of all requests, open loop at %.0f/s for %v, from due time", float64(len(open))/openFor.Seconds(), openFor)
	rep.addWindowed("loadgen.open_p50_ms", stats.OverWindows(all, openFor, windows, stats.P50), "ms", "median latency "+openWhat)
	p := stats.WindowTail(all, openFor, windows, openTail)
	rep.addWindowed("loadgen.open_tail_ms", stats.OverWindows(all, openFor, windows, stats.Tail(p)), "ms", fmt.Sprintf("p%g latency %s", p*100, openWhat))

	_, _, returned, userBytes := run.totals()
	writes := float64(countIf(open, run.isWrite))
	walAfter := env.walStats()
	syncs, appends := float64(walAfter.Syncs-walBefore.Syncs), float64(walAfter.Appends-walBefore.Appends)
	rep.add("wal.syncs_per_write", syncs/writes, "count",
		fmt.Sprintf("fsyncs per acknowledged write request, server WAL and oplog WAL together; %.3g records an fsync (group commit)", appends/syncs))
	rep.add("wal.bytes_per_user_b", float64(dirBytes(env.dir)-walBytesBefore)/float64(userBytes-userBefore), "ratio",
		"bytes the data directory grew per byte of documents and update specs written")
	rep.add("storage.live_versions_max", float64(smp.versionsMax), "count", "most collection versions alive at once, sampled every 20 ms")
	if run.replicated {
		rep.add("replset.lag_max", float64(smp.lagMax), "count", "most oplog entries a secondary was behind, sampled every 20 ms")
		rep.addAbsent(specsWithPrefix("mongod.docs_examined")...) // no request reads
	} else {
		rep.addAbsent(specsWithPrefix("replset.")...)
		examined := env.backend.DocsExamined() - examinedBefore
		rep.add("mongod.docs_examined_per_result", float64(examined)/float64(returned-returnedBefore), "count",
			fmt.Sprintf("%d documents examined for %d returned", examined, returned-returnedBefore))
	}

	recoverS, recovered, err := run.checkRecovery(rep, docs, 1)
	if err != nil {
		return err
	}
	rep.add("wal.replay_us_per_doc", recoverS[0]*1e6/float64(recovered), "us", fmt.Sprintf("recovery of %d documents took %.3g s", recovered, recoverS[0]))
	loadedBytes := int64(docs) * int64(bson.EncodedSize(itemDoc(0, run.workers[0].pad)))
	rep.add("storage.heap_b_per_user_b", heap*(1<<20)/float64(loadedBytes), "ratio", fmt.Sprintf("live heap over %d bytes of loaded documents", loadedBytes))

	rep.addAbsent(analyticSpecs()...)
	sampleDocs, err := env.backend.Database(wireDB).Find(wireColl, nil, storage.FindOptions{Limit: probeDocs})
	if err != nil {
		return err
	}
	probes := [][]probe{engineProbes, servingProbes}
	if run.replicated {
		probes = append(probes, []probe{probeReplset})
	}
	return runProbes(cfg, rep, probeSample{docs: sampleDocs, key: "k"}, probes...)
}

func countIf(results []loadgen.Result, class func(int) bool) int {
	n := 0
	for _, r := range results {
		if class(r.Class) {
			n++
		}
	}
	return n
}
