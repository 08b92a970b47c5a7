package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"docstore/benchmark/internal/span"
	"docstore/benchmark/internal/stats"
	"docstore/internal/aggregate"
	"docstore/internal/bson"
	"docstore/internal/changestream"
	"docstore/internal/cluster"
	"docstore/internal/core"
	"docstore/internal/denorm"
	"docstore/internal/driver"
	"docstore/internal/migrate"
	"docstore/internal/mongod"
	"docstore/internal/mongos"
	"docstore/internal/queries"
	"docstore/internal/query"
	"docstore/internal/storage"
	"docstore/internal/tpcds"
	"docstore/internal/translate"
)

// The analytic workloads run the paper's four queries in a closed loop with
// one client. An operation is one query; time1_ms..time4_ms are the four
// queries' median latencies and time5_ms is the tail of one pass over all
// four (queryset_ms).
const (
	queryCount = 4
	// datasetSeed is the TPC-DS generator seed. The dataset is fixed, as the
	// paper's is: at this scale a query's cost hangs on how many rows a few
	// rare predicate combinations select (Query 50 matches 6 +- 2.5 returns),
	// so a dataset per seed moves q50 by 17 % and q7 by 7 % from seed to seed
	// with nothing else changed — several times the regression bound. The
	// run's seed orders the queries within each pass instead.
	datasetSeed = 1
)

// analyticSetups is how many times each analytic workload sets up in an
// untraced run; setup_s is the median. The denormalized set-up takes most of
// a run, so it is built twice and the sharded one three times.
func analyticSetups(sharded bool) int {
	if sharded {
		return 3
	}
	return 2
}

// pass is one measured pass over the four queries.
type pass struct {
	// end is when the pass completed, from the start of the phase.
	end   time.Duration
	query [queryCount]time.Duration
	total time.Duration
}

// digest is an order-insensitive fingerprint of a result set; "" when empty.
func digest(docs []*bson.Doc) string {
	if len(docs) == 0 {
		return ""
	}
	lines := make([]string, len(docs))
	for i, d := range docs {
		lines[i] = d.ToJSON()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// passRunner runs query-set passes against one deployment and checks every
// result against the first pass's.
type passRunner struct {
	store      driver.Store
	normalized bool
	params     queries.Params
	rep        *report
	// want holds the first pass's per-query digests.
	want [queryCount]string
	// rec is nil in untraced runs; traced runs route calls through ts.
	rec *span.Recorder
	ts  *tracedStore
	req int64
	// resultDocs counts the documents the queries returned.
	resultDocs int
	// order draws each pass's query order from the run's seed.
	order *rand.Rand
}

func newPassRunner(cfg config, store driver.Store, normalized bool, rep *report, rec *span.Recorder) *passRunner {
	r := &passRunner{store: store, normalized: normalized, params: queries.DefaultParams(), rep: rep, rec: rec,
		order: rand.New(rand.NewSource(cfg.seed))}
	if rec != nil {
		r.ts = &tracedStore{Store: store, rec: rec}
	}
	return r
}

// runQuery runs one query and returns its result. Traced, it opens a span
// for the query and, where the query goes through the translation layer, one
// for translate.Run, so that the decorator's driver spans hang beneath.
func (r *passRunner) runQuery(q *queries.Query) ([]*bson.Doc, error) {
	if r.rec == nil {
		if r.normalized {
			docs, _, err := queries.RunNormalized(r.store, q, r.params)
			return docs, err
		}
		docs, _, err := queries.RunDenormalized(r.store, q, r.params)
		return docs, err
	}
	qs := r.rec.Start("queries.run", 0, r.req, time.Now())
	defer func() { r.rec.End(qs, time.Now()) }()
	r.ts.parent, r.ts.req = qs, r.req
	if !r.normalized {
		docs, _, err := queries.RunDenormalized(r.ts, q, r.params)
		return docs, err
	}
	plan, ok := q.NormalizedPlan(r.params)
	if !ok {
		// Query 50 joins two facts inside the queries package.
		docs, _, err := queries.RunNormalized(r.ts, q, r.params)
		return docs, err
	}
	tr := r.rec.Start("translate.Run", qs, r.req, time.Now())
	r.ts.parent = tr
	res, err := translate.Run(r.ts, plan)
	r.rec.End(tr, time.Now())
	return res.Docs, err
}

// onePass runs the four queries once, in an order drawn from the seed. A
// query that errors, returns nothing, or returns something other than the
// first pass did is a failed operation.
func (r *passRunner) onePass(phaseStart time.Time) pass {
	var p pass
	r.req++
	all := queries.All()
	for _, i := range r.order.Perm(len(all)) {
		q := all[i]
		start := time.Now()
		docs, err := r.runQuery(q)
		p.query[i] = time.Since(start)
		p.total += p.query[i]
		r.rep.attempted++
		r.resultDocs += len(docs)
		got := digest(docs)
		switch {
		case err != nil:
			r.rep.failed++
			r.rep.problem("pass %d query %d: %v", r.req, q.ID, err)
		case got == "":
			r.rep.failed++
			r.rep.problem("pass %d query %d returned no documents", r.req, q.ID)
		case r.want[i] == "":
			r.want[i] = got
		case got != r.want[i]:
			r.rep.failed++
			r.rep.problem("pass %d query %d result digest %s differs from the first pass's %s", r.req, q.ID, got, r.want[i])
		}
	}
	p.end = time.Since(phaseStart)
	return p
}

// runFor runs passes until d has elapsed, then finishes the one in flight.
func (r *passRunner) runFor(d time.Duration) []pass {
	start := time.Now()
	var out []pass
	for len(out) == 0 || time.Since(start) < d {
		out = append(out, r.onePass(start))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// passSamples turns passes into window samples of f's value.
func passSamples(passes []pass, f func(pass) time.Duration) []stats.Sample {
	out := make([]stats.Sample, len(passes))
	for i, p := range passes {
		out[i] = stats.Sample{At: p.end, Value: ms(f(p))}
	}
	return out
}

func analyticSpec(cfg config, number int) core.ExperimentSpec {
	scale := tpcds.ScaleSmall.WithDivisor(cfg.divisor)
	specs := core.PaperExperiments(scale, scale)
	return specs[number-1]
}

func analyticConfig() core.Config {
	c := core.DefaultConfig()
	c.Seed = datasetSeed
	return c
}

// runAnalytic is analytic_denorm (Experiment 3: stand-alone, denormalized)
// or analytic_sharded (Experiment 1: three shards, normalized, 200 µs per
// router-to-shard call, parallel scatter).
func runAnalytic(cfg config, rep *report, sharded bool) error {
	number := 3
	if sharded {
		number = 1
	}
	spec, ccfg := analyticSpec(cfg, number), analyticConfig()
	if cfg.trace {
		return traceAnalytic(cfg, rep, spec)
	}
	var d *core.Deployment
	var setupS []float64
	for i := cfg.setupCount(analyticSetups(sharded)); i > 0; i-- {
		d = nil // let the previous deployment go before building the next
		runtime.GC()
		start := time.Now()
		var err error
		if d, err = core.Setup(spec, ccfg); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	heap := heapMB()
	runner := newPassRunner(cfg, d.Store, sharded, rep, nil)
	passes := runner.runFor(cfg.measured())
	elapsed := passes[len(passes)-1].end
	if elapsed < cfg.measured() {
		elapsed = cfg.measured()
	}

	rep.add("setup_s", stats.Median(setupS), "s", fmt.Sprintf("median of %d set-ups %.3g", len(setupS), setupS))
	rep.add("heap_mb", heap, "MB", "HeapAlloc after set-up and a forced GC")
	unit := passSamples(passes, func(p pass) time.Duration { return p.total })
	rep.addWindowed("ops_per_s", stats.OverWindows(unit, elapsed, windows, queriesPerSecond), "1/s",
		fmt.Sprintf("queries per second, closed loop, 1 client: the queries a window completed over the time they took; %d passes in %.2f s, queryset_ms median %.4g",
			len(passes), elapsed.Seconds(), stats.OverWindows(unit, elapsed, windows, stats.P50).Median))
	for i := 0; i < queryCount; i++ {
		i := i
		s := passSamples(passes, func(p pass) time.Duration { return p.query[i] })
		rep.addSlot(cfg.workload, i+1, stats.OverWindows(s, elapsed, windows, stats.P50), "median latency")
	}
	if tail := stats.WindowTail(unit, elapsed, windows, judgedTail); tail < 1 {
		rep.addSlot(cfg.workload, 5, stats.OverWindows(unit, elapsed, windows, stats.Tail(tail)), fmt.Sprintf("p%g of a pass over the four queries", tail*100))
	} else {
		// Too few passes for a percentile, in a window or in the phase.
		slowest := stats.OverWindows(unit, elapsed, 1, stats.Tail(1))
		rep.addSlot(cfg.workload, 5, slowest, fmt.Sprintf("slowest of %d passes over the four queries, too few for a percentile", len(passes)))
	}
	return nil
}

// queriesPerSecond reduces a window's pass times, in ms, to the closed
// loop's throughput over those passes.
func queriesPerSecond(passMS []float64) float64 {
	busy := 0.0
	for _, v := range passMS {
		busy += v
	}
	return float64(queryCount*len(passMS)) * 1000 / busy
}

// tracedStore decorates a driver.Store with one span per call, a child of
// whichever query or translate span is current. The queries run on one
// goroutine, so the current parent is a plain field.
type tracedStore struct {
	driver.Store
	rec    *span.Recorder
	parent int
	req    int64
}

func (s *tracedStore) call(name string) func() {
	id := s.rec.Start(name, s.parent, s.req, time.Now())
	return func() { s.rec.End(id, time.Now()) }
}

func (s *tracedStore) Find(coll string, filter *bson.Doc, opts storage.FindOptions) ([]*bson.Doc, error) {
	defer s.call("driver.Find")()
	return s.Store.Find(coll, filter, opts)
}

func (s *tracedStore) FindCursor(coll string, filter *bson.Doc, opts storage.FindOptions) (driver.Cursor, error) {
	defer s.call("driver.FindCursor")()
	return s.Store.FindCursor(coll, filter, opts)
}

func (s *tracedStore) Insert(coll string, doc *bson.Doc) (any, error) {
	defer s.call("driver.Insert")()
	return s.Store.Insert(coll, doc)
}

func (s *tracedStore) InsertMany(coll string, docs []*bson.Doc) ([]any, error) {
	defer s.call("driver.InsertMany")()
	return s.Store.InsertMany(coll, docs)
}

func (s *tracedStore) BulkWrite(coll string, ops []storage.WriteOp, opts storage.BulkOptions) storage.BulkResult {
	defer s.call("driver.BulkWrite")()
	return s.Store.BulkWrite(coll, ops, opts)
}

func (s *tracedStore) Update(coll string, spec query.UpdateSpec) (storage.UpdateResult, error) {
	defer s.call("driver.Update")()
	return s.Store.Update(coll, spec)
}

func (s *tracedStore) Aggregate(coll string, stages []*bson.Doc) ([]*bson.Doc, error) {
	defer s.call("driver.Aggregate")()
	return s.Store.Aggregate(coll, stages)
}

func (s *tracedStore) AggregateCursor(coll string, stages []*bson.Doc) (driver.Cursor, error) {
	defer s.call("driver.AggregateCursor")()
	return s.Store.AggregateCursor(coll, stages)
}

func (s *tracedStore) Watch(coll string, pipeline []*bson.Doc, resumeAfter string) (changestream.Stream, error) {
	defer s.call("driver.Watch")()
	return s.Store.Watch(coll, pipeline, resumeAfter)
}

func (s *tracedStore) Count(coll string, filter *bson.Doc) (int, error) {
	defer s.call("driver.Count")()
	return s.Store.Count(coll, filter)
}

func (s *tracedStore) EnsureIndex(coll string, spec *bson.Doc, unique bool) error {
	defer s.call("driver.EnsureIndex")()
	return s.Store.EnsureIndex(coll, spec, unique)
}

func (s *tracedStore) DropCollection(coll string) bool {
	defer s.call("driver.DropCollection")()
	return s.Store.DropCollection(coll)
}

// buildTraced builds the deployment step by step through the layers' public
// functions, the same steps in the same order as core.Setup, with a span
// around each, so that set-up time divides by layer.
func buildTraced(spec core.ExperimentSpec, ccfg core.Config, rec *span.Recorder) (*core.Deployment, error) {
	d := &core.Deployment{Spec: spec, Config: ccfg}
	gen := tpcds.NewGenerator(spec.Scale, ccfg.Seed)
	dbName := core.DatabaseName(spec.Scale)
	root := rec.Start("setup", 0, 0, time.Now())
	defer func() { rec.End(root, time.Now()) }()
	step := func(name string, f func() error) error {
		id := rec.Start(name, root, 0, time.Now())
		defer func() { rec.End(id, time.Now()) }()
		return f()
	}
	if spec.Env == core.Sharded {
		err := step("cluster.Build", func() error {
			c, err := cluster.Build(cluster.Config{Shards: ccfg.Shards, ShardRAMBytes: 8 << 30, NetworkLatency: ccfg.NetworkLatency,
				ParallelScatter: ccfg.ParallelScatter, ChunkSizeBytes: ccfg.ChunkSizeBytes})
			if err != nil {
				return err
			}
			for fact, key := range core.ShardKeys() {
				if _, err := c.ShardCollection(dbName, fact, key); err != nil {
					return err
				}
			}
			d.Cluster, d.Store = c, driver.NewSharded(c.Router(), dbName)
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		d.Standalone = mongod.NewServer(mongod.Options{Name: "standalone"})
		d.Store = driver.NewStandalone(d.Standalone.Database(dbName))
	}
	err := step("migrate.LoadDataset", func() (err error) {
		d.Load, err = migrate.LoadDataset(d.Store, gen)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := step("migrate.EnsureQueryIndexes", func() error { return migrate.EnsureQueryIndexes(d.Store, gen.Schema()) }); err != nil {
		return nil, err
	}
	if spec.Model != core.Denormalized {
		return d, nil
	}
	err = step("denorm.DenormalizeDataset", func() error {
		res, err := denorm.DenormalizeDataset(d.Store, gen.Schema())
		d.Denorm = &res
		return err
	})
	if err != nil {
		return nil, err
	}
	return d, step("denorm.EnsureDenormalizedIndexes", func() error { return denorm.EnsureDenormalizedIndexes(d.Store) })
}

// perPass is what one pass costs, from a trace: self time of the queries
// package, of translate.Run, and time inside driver.Store calls.
type perPass struct {
	queriesMS, translateMS, driverMS float64
	driverCalls, translateCalls      float64
}

func perPassOf(spans []span.Span, passes int) perPass {
	var out perPass
	n := float64(passes)
	for name, self := range span.SelfTimes(spans) {
		switch {
		case name == "queries.run":
			out.queriesMS += ms(self) / n
		case name == "translate.Run":
			out.translateMS += ms(self) / n
		case strings.HasPrefix(name, "driver."):
			out.driverMS += ms(self) / n
		}
	}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "driver.") {
			continue
		}
		out.driverCalls += 1 / n
		if spans[s.Parent-1].Name == "translate.Run" {
			out.translateCalls += 1 / n
		}
	}
	return out
}

func medianTotal(ps []pass) float64 {
	totals := make([]float64, len(ps))
	for i, p := range ps {
		totals[i] = ms(p.total)
	}
	return stats.Median(totals)
}

// traceAnalytic is the traced variant: a set-up with a span a step, half the
// time traced between two untraced quarters that set the baseline, then (sharded) the same
// pass replayed on the Experiment-2 stand-alone deployment or (denormalized)
// the four pipelines run outside the server, then the layer probes.
func traceAnalytic(cfg config, rep *report, spec core.ExperimentSpec) error {
	sharded := spec.Env == core.Sharded
	rec := span.NewRecorder(time.Now())
	d, err := buildTraced(spec, analyticConfig(), rec)
	if err != nil {
		return err
	}
	heap := heapMB()
	setup := rec.Spans()
	stepS := func(name string) float64 {
		total, _ := span.Totals(setup)
		return total[name].Seconds()
	}

	// Untraced, traced, untraced: the baseline brackets the traced half, so
	// that a drift over the run does not read as tracing overhead.
	quarter := cfg.measured() / 4
	base := newPassRunner(cfg, d.Store, sharded, rep, nil)
	basePasses := base.runFor(quarter)

	traced := newPassRunner(cfg, d.Store, sharded, rep, rec)
	traced.want = base.want
	var routeBefore, routeAfter mongos.RoutingStats
	if sharded {
		routeBefore = d.Cluster.Router().Stats()
	}
	examinedBefore := d.DocsExamined()
	goBefore := readGo()
	tracedPasses := traced.runFor(cfg.measured() - 2*quarter)
	goAfter := readGo()
	examined := d.DocsExamined() - examinedBefore
	if sharded {
		routeAfter = d.Cluster.Router().Stats()
	}
	basePasses = append(basePasses, base.runFor(quarter)...)
	spans := rec.Spans()
	if err := span.Check(spans); err != nil {
		rep.problem("trace: %v", err)
	}
	if err := span.WriteJSON(filepath.Join(cfg.out, cfg.workload+".trace.json"), spans); err != nil {
		return err
	}

	n := float64(len(tracedPasses))
	rep.add("bench.trace_overhead_frac", medianTotal(tracedPasses)/medianTotal(basePasses)-1, "frac",
		fmt.Sprintf("traced queryset %.4g ms over untraced %.4g ms, minus 1", medianTotal(tracedPasses), medianTotal(basePasses)))
	cost := perPassOf(spans, len(tracedPasses))
	rep.add("queries.self_ms", cost.queriesMS, "ms", "time in the queries package itself, per pass")
	if sharded {
		rep.add("translate.self_ms", cost.translateMS, "ms", "time in translate.Run itself, per pass")
		rep.add("translate.store_calls", cost.translateCalls, "count", "driver.Store calls made by translate.Run, per pass")
	} else {
		rep.addAbsent(specsWithPrefix("translate.")...) // the denormalized queries are pipelines, not plans
	}
	rep.add("driver.calls", cost.driverCalls, "count", "driver.Store calls per pass")
	rep.add("driver.busy_ms", cost.driverMS, "ms", "time inside driver.Store calls, per pass")
	goRows(rep, goBefore, goAfter, len(tracedPasses)*queryCount)
	rep.add("mongod.docs_examined_per_result", float64(examined)/float64(traced.resultDocs), "count",
		fmt.Sprintf("%d documents examined for %d returned over %d passes", examined, traced.resultDocs, len(tracedPasses)))

	if sharded {
		after := routeAfter
		targeted, broadcast := after.TargetedQueries-routeBefore.TargetedQueries, after.BroadcastQueries-routeBefore.BroadcastQueries
		calls := float64(after.ShardCalls-routeBefore.ShardCalls) / n
		rep.add("mongos.shard_calls", calls, "count", fmt.Sprintf("router-to-shard calls per pass; at the configured %v a call, %.4g ms",
			analyticConfig().NetworkLatency, calls*ms(analyticConfig().NetworkLatency)))
		rep.add("mongos.broadcast_frac", float64(broadcast)/float64(targeted+broadcast), "frac",
			fmt.Sprintf("share of routed queries sent to every shard: %d broadcast, %d targeted", broadcast, targeted))
		rep.add("mongos.docs_merged", float64(after.DocsMerged-routeBefore.DocsMerged)/n, "count", "documents the router merged per pass")
		chunks := 0
		for _, ns := range d.Cluster.ConfigServer().ShardedNamespaces() {
			chunks += len(d.Cluster.ConfigServer().Metadata(ns).Chunks())
		}
		rep.add("sharding.chunks", float64(chunks), "count", "chunks over the sharded collections")
		var docs []float64
		sum := 0.0
		for _, s := range d.Cluster.Shards() {
			docs = append(docs, float64(s.Status().Documents))
			sum += docs[len(docs)-1]
		}
		rep.add("sharding.docs_skew", stats.Sorted(docs)[len(docs)-1]/(sum/float64(len(docs))), "ratio", fmt.Sprintf("most loaded shard's documents over the mean; per shard %v", docs))

		// The same pass on Experiment 2 (stand-alone, normalized, same
		// dataset): results must be identical, and what the driver calls cost
		// beyond their stand-alone cost is the router's overhead.
		alone, err := core.Setup(analyticSpec(cfg, 2), analyticConfig())
		if err != nil {
			return err
		}
		aloneRec := span.NewRecorder(time.Now())
		replay := newPassRunner(cfg, alone.Store, true, rep, aloneRec)
		replay.want = base.want
		replay.onePass(time.Now())
		aloneCost := perPassOf(aloneRec.Spans(), 1)
		rep.add("mongos.overhead_ms", cost.driverMS-aloneCost.driverMS, "ms",
			fmt.Sprintf("driver time per pass %.4g ms minus the same calls on the stand-alone replay %.4g ms", cost.driverMS, aloneCost.driverMS))
		rep.addAbsent(specsWithPrefix("aggregate.", "mongod.aggregate")...)
	} else {
		rep.addAbsent(specsWithPrefix("mongos.", "sharding.")...)
		if err := aggregateRows(rep, d, base.want); err != nil {
			return err
		}
	}

	// Generation is timed on a generator of its own: the deployment's has
	// the tables cached.
	genStart := time.Now()
	g := tpcds.NewGenerator(spec.Scale, datasetSeed)
	rows := 0
	for _, table := range g.Schema().TableNames() {
		if _, err := g.TableDat(table); err != nil {
			return err
		}
		rows += g.RowCount(table)
	}
	rep.add("tpcds.gen_s", time.Since(genStart).Seconds(), "s", fmt.Sprintf("generating the %d rows once more, outside the load", rows))
	loadS := stepS("migrate.LoadDataset")
	rep.add("migrate.load_s", loadS, "s", fmt.Sprintf("migrate.LoadDataset, generation included; setup %.3g s in all", stepS("setup")))
	rep.add("migrate.us_per_doc", loadS*1e6/float64(d.Load.TotalDocuments()), "us", fmt.Sprintf("load time per document, %d documents", d.Load.TotalDocuments()))
	rep.add("migrate.index_s", stepS("migrate.EnsureQueryIndexes"), "s", "migrate.EnsureQueryIndexes")
	if d.Denorm != nil {
		buildS := stepS("denorm.DenormalizeDataset")
		rep.add("denorm.build_s", buildS, "s", fmt.Sprintf("denorm.DenormalizeDataset, %.2f of set-up", buildS/stepS("setup")))
		rep.add("denorm.us_per_doc", buildS*1e6/float64(d.Denorm.EmbeddedDocuments), "us", fmt.Sprintf("per embedded document, %d of them", d.Denorm.EmbeddedDocuments))
		rep.add("denorm.index_s", stepS("denorm.EnsureDenormalizedIndexes"), "s", "denorm.EnsureDenormalizedIndexes")
	} else {
		rep.addAbsent(specsWithPrefix("denorm.")...)
	}
	userBytes := d.Load.TotalBytes()
	rep.add("storage.heap_b_per_user_b", heap*(1<<20)/float64(userBytes), "ratio", fmt.Sprintf("live heap over %d bytes of loaded documents", userBytes))

	rep.addAbsent(servingSpecs()...)
	docs, err := d.Store.Find("store_sales", nil, storage.FindOptions{Limit: probeDocs})
	if err != nil {
		return err
	}
	return runProbes(cfg, rep, probeSample{docs: docs, key: "ss_ticket_number"}, engineProbes)
}

// aggregateRows runs each query's denormalized pipeline outside the server,
// aggregate.Pipeline.Run over the pre-fetched fact collection, and through
// mongod.Database, and checks both against the digests of the measured run.
func aggregateRows(rep *report, d *core.Deployment, want [queryCount]string) error {
	db := d.Standalone.Database(core.DatabaseName(d.Spec.Scale))
	docsIn, docsOut, serverMS := 0, 0, 0.0
	for i, q := range queries.All() {
		stages := q.DenormalizedPipeline(queries.DefaultParams())
		p, err := aggregate.Parse(stages)
		if err != nil {
			return err
		}
		input, err := d.Store.Find(q.Fact, nil, storage.FindOptions{})
		if err != nil {
			return err
		}
		var out []*bson.Doc
		run, err := each(5, time.Millisecond, func(int) error {
			out, err = p.Run(input, aggregate.NewSliceEnv())
			return err
		})
		if err != nil {
			return err
		}
		if got := digest(out); got != want[i] {
			rep.problem("query %d: Pipeline.Run over the pre-fetched %s gives digest %q, the measured run %q", q.ID, q.Fact, got, want[i])
		}
		rep.add(fmt.Sprintf("aggregate.q%d_ms", q.ID), run, "ms", fmt.Sprintf("Pipeline.Run of %v over the %d pre-fetched %s documents", p.StageNames(), len(input), q.Fact))
		docsIn, docsOut = docsIn+len(input), docsOut+len(out)
		server, err := each(5, time.Millisecond, func(int) error {
			_, err := db.Aggregate(q.Fact, stages)
			return err
		})
		if err != nil {
			return err
		}
		serverMS += server
	}
	rep.add("aggregate.docs_in_per_out", float64(docsIn)/float64(docsOut), "count", fmt.Sprintf("%d documents into the four pipelines, %d out", docsIn, docsOut))
	rep.add("mongod.aggregate_ms", serverMS, "ms", "the four pipelines through mongod.Database.Aggregate, summed: scan and $match pushdown included")
	return nil
}
