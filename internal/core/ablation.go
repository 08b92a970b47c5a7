package core

import (
	"fmt"
	"time"

	"docstore/internal/bson"
	"docstore/internal/driver"
	"docstore/internal/metrics"
	"docstore/internal/migrate"
	"docstore/internal/mongos"
	"docstore/internal/queries"
	"docstore/internal/sharding"
	"docstore/internal/storage"
	"docstore/internal/tpcds"
)

// Ablations isolate three design choices (doc.go's "Streaming cursor
// execution" and "Write path" describe the mechanisms): the shard-key
// choice (targeted vs broadcast routing), secondary indexes on the normalized
// model, and sequential vs parallel scatter-gather at the router. Each
// returns a small report and the raw numbers so the benchmarks can assert on
// them.

// ShardKeyAblationResult compares Query 50 on four deployments: sharded
// under two shard keys, and stand-alone with and without the index the
// router builds for the paper's key. Finding (iii) has two causes that the
// sharded rows alone cannot tell apart — routing by the shard key, and the
// index the shard key brings — and the stand-alone rows measure the second
// without the first.
type ShardKeyAblationResult struct {
	Query          int
	TicketKeyStats mongos.RoutingStats
	TicketKeyTime  time.Duration
	AlternateKey   string
	AlternateStats mongos.RoutingStats
	AlternateTime  time.Duration
	// StandaloneTime is the query stand-alone as Experiment 5 builds the
	// deployment, MatchedTime the same with store_sales' shard-key index.
	StandaloneTime time.Duration
	MatchedTime    time.Duration
	// Results are the query's rows on the four deployments, in the order
	// of the fields above.
	Results [4][]*bson.Doc
}

// RunShardKeyAblation runs Query 50 against two sharded deployments that
// differ only in the store_sales shard key — the ticket-number key the
// paper's observation (iii) relies on, and an alternate key the query never
// constrains, which forces a broadcast — and against two stand-alone ones:
// as Experiment 5 builds it, and with the index on store_sales' paper shard
// key built as the router builds it (setupStandaloneQuery50).
func RunShardKeyAblation(scale tpcds.Scale, cfg Config) (*ShardKeyAblationResult, error) {
	res := &ShardKeyAblationResult{Query: 50, AlternateKey: "ss_cdemo_sk"}
	q := queries.MustByID(50)

	run := func(keys map[string]*bson.Doc) ([]*bson.Doc, mongos.RoutingStats, time.Duration, error) {
		spec := ExperimentSpec{Number: 0, Scale: scale, Model: Normalized, Env: Sharded}
		d, err := setupShardedWithKeys(spec, cfg, keys)
		if err != nil {
			return nil, mongos.RoutingStats{}, 0, err
		}
		d.Cluster.Router().ResetStats()
		docs, elapsed, err := queries.RunNormalized(d.Store, q, cfg.Params)
		if err != nil {
			return nil, mongos.RoutingStats{}, 0, err
		}
		return docs, d.Cluster.Router().Stats(), elapsed, nil
	}
	runStandalone := func(matched bool) ([]*bson.Doc, time.Duration, error) {
		d, err := setupStandaloneQuery50(scale, cfg, matched)
		if err != nil {
			return nil, 0, err
		}
		return queries.RunNormalized(d.Store, q, cfg.Params)
	}

	var err error
	if res.Results[0], res.TicketKeyStats, res.TicketKeyTime, err = run(ShardKeys()); err != nil {
		return nil, err
	}
	altKeys := ShardKeys()
	altKeys["store_sales"] = bson.D(res.AlternateKey, "hashed")
	if res.Results[1], res.AlternateStats, res.AlternateTime, err = run(altKeys); err != nil {
		return nil, err
	}
	if res.Results[2], res.StandaloneTime, err = runStandalone(false); err != nil {
		return nil, err
	}
	if res.Results[3], res.MatchedTime, err = runStandalone(true); err != nil {
		return nil, err
	}
	return res, nil
}

// setupStandaloneQuery50 is Setup for a stand-alone normalized deployment,
// as Experiment 5 builds it; with matched, store_sales also gets the index
// the router builds on every shard for the collection's paper shard key
// (the key's IndexSpec, as mongos.Router.EnableSharding builds it).
func setupStandaloneQuery50(scale tpcds.Scale, cfg Config, matched bool) (*Deployment, error) {
	d, err := Setup(ExperimentSpec{Number: 0, Scale: scale, Model: Normalized, Env: StandAlone}, cfg)
	if err != nil || !matched {
		return d, err
	}
	key, err := sharding.ParseShardKey(ShardKeys()["store_sales"])
	if err != nil {
		return nil, err
	}
	if err := d.Store.EnsureIndex("store_sales", key.IndexSpec().Doc(), false); err != nil {
		return nil, fmt.Errorf("core: building the store_sales shard-key index stand-alone: %w", err)
	}
	return d, nil
}

// setupShardedWithKeys is Setup for a sharded normalized deployment with an
// explicit shard-key assignment.
func setupShardedWithKeys(spec ExperimentSpec, cfg Config, keys map[string]*bson.Doc) (*Deployment, error) {
	d := &Deployment{Spec: spec, Config: cfg, generator: tpcds.NewGenerator(spec.Scale, cfg.Seed)}
	dbName := DatabaseName(spec.Scale)
	c, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	d.Cluster = c
	for fact, key := range keys {
		if _, err := c.ShardCollection(dbName, fact, key); err != nil {
			return nil, err
		}
	}
	d.Store = driver.NewSharded(c.Router(), dbName)
	if err := loadAndIndex(d); err != nil {
		return nil, err
	}
	return d, nil
}

// String renders the ablation result.
func (r *ShardKeyAblationResult) String() string {
	t := metrics.NewTable(fmt.Sprintf("Ablation: shard-key choice for Query %d", r.Query),
		"Shard key", "Targeted queries", "Broadcast queries", "Shard calls", "Runtime")
	t.AddRow("ss_ticket_number (paper)", r.TicketKeyStats.TargetedQueries, r.TicketKeyStats.BroadcastQueries,
		r.TicketKeyStats.ShardCalls, metrics.FormatDuration(r.TicketKeyTime))
	t.AddRow(r.AlternateKey, r.AlternateStats.TargetedQueries, r.AlternateStats.BroadcastQueries,
		r.AlternateStats.ShardCalls, metrics.FormatDuration(r.AlternateTime))
	t.AddRow("stand-alone (Experiment 5)", "-", "-", "-", metrics.FormatDuration(r.StandaloneTime))
	t.AddRow("stand-alone + ss_ticket_number index", "-", "-", "-", metrics.FormatDuration(r.MatchedTime))
	return t.String()
}

// IndexAblationResult compares a normalized query with and without secondary
// indexes.
type IndexAblationResult struct {
	Query          int
	WithIndexes    time.Duration
	WithoutIndexes time.Duration
	PlansWith      []storage.Plan
}

// RunIndexAblation runs Query 7 on two stand-alone normalized deployments,
// one with the benchmark's secondary indexes and one with none.
func RunIndexAblation(scale tpcds.Scale, cfg Config) (*IndexAblationResult, error) {
	res := &IndexAblationResult{Query: 7}
	q := queries.MustByID(7)

	spec := ExperimentSpec{Number: 0, Scale: scale, Model: Normalized, Env: StandAlone}
	with, err := Setup(spec, cfg)
	if err != nil {
		return nil, err
	}
	if _, res.WithIndexes, err = queries.RunNormalized(with.Store, q, cfg.Params); err != nil {
		return nil, err
	}

	without := &Deployment{Spec: spec, Config: cfg, generator: tpcds.NewGenerator(scale, cfg.Seed)}
	without.Standalone = newStandaloneServer()
	without.Store = driver.NewStandalone(without.Standalone.Database(DatabaseName(scale)))
	if without.Load, err = migrate.LoadDataset(without.Store, without.generator); err != nil {
		return nil, err
	}
	if _, res.WithoutIndexes, err = queries.RunNormalized(without.Store, q, cfg.Params); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the ablation result.
func (r *IndexAblationResult) String() string {
	t := metrics.NewTable(fmt.Sprintf("Ablation: secondary indexes for Query %d (normalized, stand-alone)", r.Query),
		"Configuration", "Runtime")
	t.AddRow("with FK/PK indexes", metrics.FormatDuration(r.WithIndexes))
	t.AddRow("without indexes", metrics.FormatDuration(r.WithoutIndexes))
	return t.String()
}

// ScatterAblationResult compares sequential and parallel scatter-gather for a
// broadcast query on the sharded cluster.
type ScatterAblationResult struct {
	Query      int
	Sequential time.Duration
	Parallel   time.Duration
}

// RunScatterAblation runs Query 46 (a broadcast query) on two sharded
// deployments differing only in the router's scatter mode.
func RunScatterAblation(scale tpcds.Scale, cfg Config) (*ScatterAblationResult, error) {
	res := &ScatterAblationResult{Query: 46}
	q := queries.MustByID(46)
	for _, parallel := range []bool{false, true} {
		c := cfg
		c.ParallelScatter = parallel
		spec := ExperimentSpec{Number: 0, Scale: scale, Model: Normalized, Env: Sharded}
		d, err := Setup(spec, c)
		if err != nil {
			return nil, err
		}
		_, elapsed, err := queries.RunNormalized(d.Store, q, c.Params)
		if err != nil {
			return nil, err
		}
		if parallel {
			res.Parallel = elapsed
		} else {
			res.Sequential = elapsed
		}
	}
	return res, nil
}

// String renders the ablation result.
func (r *ScatterAblationResult) String() string {
	t := metrics.NewTable(fmt.Sprintf("Ablation: scatter-gather mode for Query %d (normalized, sharded)", r.Query),
		"Scatter mode", "Runtime")
	t.AddRow("sequential (thesis client)", metrics.FormatDuration(r.Sequential))
	t.AddRow("parallel (real mongos)", metrics.FormatDuration(r.Parallel))
	return t.String()
}
