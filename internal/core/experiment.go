// Package core is the experiment framework of the reproduction — the paper's
// primary contribution re-expressed as a library. It defines the six
// experimental setups of Table 4.1 (two dataset scales × {normalized sharded,
// normalized stand-alone, denormalized stand-alone}), builds each deployment
// (loading data through the migration algorithm, denormalizing when the setup
// calls for it, sharding the fact collections when the environment is a
// cluster), runs the four analytical queries the prescribed number of times,
// and renders every table and figure of the evaluation (Tables 3.5, 3.6, 4.1,
// 4.3, 4.4, 4.5 and Figures 4.9, 4.10, 4.11).
package core

import (
	"fmt"
	"time"

	"docstore/internal/bson"
	"docstore/internal/cluster"
	"docstore/internal/denorm"
	"docstore/internal/driver"
	"docstore/internal/migrate"
	"docstore/internal/mongod"
	"docstore/internal/queries"
	"docstore/internal/tpcds"
)

// DataModel selects how the relational data is modelled in the document
// store.
type DataModel string

// Data models.
const (
	Normalized   DataModel = "normalized"
	Denormalized DataModel = "denormalized"
)

// Environment selects the deployment environment.
type Environment string

// Environments.
const (
	StandAlone Environment = "stand-alone"
	Sharded    Environment = "sharded"
)

// ExperimentSpec is one row of Table 4.1.
type ExperimentSpec struct {
	Number int
	Scale  tpcds.Scale
	Model  DataModel
	Env    Environment
}

// Label renders the spec the way the thesis labels experiments.
func (s ExperimentSpec) Label() string {
	return fmt.Sprintf("Experiment %d (%s / %s / %s)", s.Number, s.Scale.Name, s.Model, s.Env)
}

// PaperExperiments returns the six experimental setups of Table 4.1 for the
// given pair of scales.
func PaperExperiments(small, large tpcds.Scale) []ExperimentSpec {
	return []ExperimentSpec{
		{Number: 1, Scale: small, Model: Normalized, Env: Sharded},
		{Number: 2, Scale: small, Model: Normalized, Env: StandAlone},
		{Number: 3, Scale: small, Model: Denormalized, Env: StandAlone},
		{Number: 4, Scale: large, Model: Normalized, Env: Sharded},
		{Number: 5, Scale: large, Model: Normalized, Env: StandAlone},
		{Number: 6, Scale: large, Model: Denormalized, Env: StandAlone},
	}
}

// Config tunes how deployments are built and how queries are run.
type Config struct {
	// Seed drives the deterministic data generator.
	Seed int64
	// Shards is the cluster size for sharded environments (the thesis uses 3).
	Shards int
	// NetworkLatency is the simulated per-call router↔shard latency.
	NetworkLatency time.Duration
	// ParallelScatter fans broadcast shard calls out concurrently, as the
	// real query router does.
	ParallelScatter bool
	// ChunkSizeBytes overrides the chunk size for sharded collections
	// (0 keeps the 64 MB default; the laptop-scale datasets use a smaller
	// value so that chunk splitting actually happens).
	ChunkSizeBytes int
	// Runs is how many times each query is executed; the best run is
	// reported, matching §4.2 (five warm runs, best reported).
	Runs int
	// Params are the query predicate values.
	Params queries.Params
}

// DefaultConfig returns the configuration used by the benchmark harness.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Shards:          3,
		NetworkLatency:  200 * time.Microsecond,
		ParallelScatter: true,
		ChunkSizeBytes:  1 << 20,
		Runs:            5,
		Params:          queries.DefaultParams(),
	}
}

// DatabaseName returns the database name used for a scale, following the
// thesis ("Dataset_1GB", "Dataset_5GB").
func DatabaseName(scale tpcds.Scale) string { return "Dataset_" + scale.Name }

// ShardKeys returns the shard-key specification per fact collection used by
// the sharded experiments: hashed keys on the ticket number for the sales and
// returns facts (which is why Query 50, whose driving lookup is by ticket
// number, routes to specific shards) and on the date key for inventory.
func ShardKeys() map[string]*bson.Doc {
	return map[string]*bson.Doc{
		"store_sales":   bson.D("ss_ticket_number", "hashed"),
		"store_returns": bson.D("sr_ticket_number", "hashed"),
		"inventory":     bson.D("inv_date_sk", "hashed"),
	}
}

// Deployment is a fully prepared experimental setup: data loaded (and
// denormalized when the model calls for it) into either a stand-alone server
// or a sharded cluster, reachable through a driver.Store.
type Deployment struct {
	Spec   ExperimentSpec
	Config Config
	Store  driver.Store

	Load   *migrate.DatasetLoadResult
	Denorm *denorm.DatasetResult

	Standalone *mongod.Server
	Cluster    *cluster.Cluster

	generator *tpcds.Generator
}

// Generator returns the deployment's data generator.
func (d *Deployment) Generator() *tpcds.Generator { return d.generator }

// DocsExamined sums the documents examined by read cursors across the
// deployment's servers (the stand-alone server, or every shard).
func (d *Deployment) DocsExamined() int64 {
	if d.Standalone != nil {
		return d.Standalone.DocsExamined()
	}
	if d.Cluster != nil {
		var total int64
		for _, s := range d.Cluster.Shards() {
			total += s.DocsExamined()
		}
		return total
	}
	return 0
}

// Setup builds the deployment for an experiment: it creates the environment,
// migrates the generated dataset into it, builds the query indexes, shards
// the fact collections (sharded environments), and denormalizes the fact
// collections (denormalized model).
func Setup(spec ExperimentSpec, cfg Config) (*Deployment, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	d := &Deployment{Spec: spec, Config: cfg, generator: tpcds.NewGenerator(spec.Scale, cfg.Seed)}
	dbName := DatabaseName(spec.Scale)

	switch spec.Env {
	case StandAlone:
		d.Standalone = newStandaloneServer()
		d.Store = driver.NewStandalone(d.Standalone.Database(dbName))
	case Sharded:
		c, err := buildCluster(cfg)
		if err != nil {
			return nil, err
		}
		d.Cluster = c
		for fact, key := range ShardKeys() {
			if _, err := c.ShardCollection(dbName, fact, key); err != nil {
				return nil, fmt.Errorf("core: sharding %s: %w", fact, err)
			}
		}
		d.Store = driver.NewSharded(c.Router(), dbName)
	default:
		return nil, fmt.Errorf("core: unknown environment %q", spec.Env)
	}

	if err := loadAndIndex(d); err != nil {
		return nil, err
	}

	if spec.Model == Denormalized {
		res, err := denorm.DenormalizeDataset(d.Store, d.generator.Schema())
		if err != nil {
			return nil, fmt.Errorf("core: denormalizing for %s: %w", spec.Label(), err)
		}
		d.Denorm = &res
		if err := denorm.EnsureDenormalizedIndexes(d.Store); err != nil {
			return nil, fmt.Errorf("core: indexing denormalized collections for %s: %w", spec.Label(), err)
		}
	}
	return d, nil
}

// QueryRun is the measured execution of one query on one deployment.
type QueryRun struct {
	Experiment int
	QueryID    int
	Runs       []time.Duration
	Best       time.Duration
	Mean       time.Duration
	ResultDocs int
	// ResultBytes is the encoded size of the result set — the selectivity
	// measure of Table 4.4.
	ResultBytes int64
	// DocsExamined is the number of stored documents the deployment's
	// servers read to answer the query (first run): a deterministic work
	// measure for cross-model comparisons that, unlike wall-clock time, does
	// not flake under parallel test load.
	DocsExamined int64
}

// RunQuery executes one query cfg.Runs times against the deployment and
// returns the measurements. Data is warm in memory for every run, matching
// the thesis' methodology.
func (d *Deployment) RunQuery(q *queries.Query) (QueryRun, error) {
	run := QueryRun{Experiment: d.Spec.Number, QueryID: q.ID}
	for i := 0; i < d.Config.Runs; i++ {
		var docs []*bson.Doc
		var elapsed time.Duration
		var err error
		var examinedBefore int64
		if i == 0 {
			examinedBefore = d.DocsExamined()
		}
		if d.Spec.Model == Denormalized {
			docs, elapsed, err = queries.RunDenormalized(d.Store, q, d.Config.Params)
		} else {
			docs, elapsed, err = queries.RunNormalized(d.Store, q, d.Config.Params)
		}
		if err != nil {
			return run, fmt.Errorf("core: %s on %s: %w", q.Name, d.Spec.Label(), err)
		}
		run.Runs = append(run.Runs, elapsed)
		if run.Best == 0 || elapsed < run.Best {
			run.Best = elapsed
		}
		run.Mean += elapsed
		if i == 0 {
			run.ResultDocs = len(docs)
			for _, doc := range docs {
				run.ResultBytes += int64(bson.EncodedSize(doc))
			}
			run.DocsExamined = d.DocsExamined() - examinedBefore
		}
	}
	if len(run.Runs) > 0 {
		run.Mean /= time.Duration(len(run.Runs))
	}
	return run, nil
}

// ExperimentResult is the outcome of one experimental setup: load times plus
// the four query runs.
type ExperimentResult struct {
	Spec    ExperimentSpec
	Load    *migrate.DatasetLoadResult
	Denorm  *denorm.DatasetResult
	Queries []QueryRun
}

// QueryRun returns the run for a query id, or nil.
func (r *ExperimentResult) QueryRun(id int) *QueryRun {
	for i := range r.Queries {
		if r.Queries[i].QueryID == id {
			return &r.Queries[i]
		}
	}
	return nil
}

// RunExperiment builds the deployment for a spec and runs all four queries.
func RunExperiment(spec ExperimentSpec, cfg Config) (*ExperimentResult, error) {
	d, err := Setup(spec, cfg)
	if err != nil {
		return nil, err
	}
	return d.RunAllQueries()
}

// RunAllQueries runs the four benchmark queries on an existing deployment.
func (d *Deployment) RunAllQueries() (*ExperimentResult, error) {
	res := &ExperimentResult{Spec: d.Spec, Load: d.Load, Denorm: d.Denorm}
	for _, q := range queries.All() {
		run, err := d.RunQuery(q)
		if err != nil {
			return res, err
		}
		res.Queries = append(res.Queries, run)
	}
	return res, nil
}

// SuiteResult is the outcome of the full six-experiment suite.
type SuiteResult struct {
	Config      Config
	Experiments []*ExperimentResult
}

// Experiment returns the result for an experiment number, or nil.
func (s *SuiteResult) Experiment(n int) *ExperimentResult {
	for _, e := range s.Experiments {
		if e.Spec.Number == n {
			return e
		}
	}
	return nil
}

// RunSuite runs every experiment of Table 4.1 at the two given scales.
func RunSuite(small, large tpcds.Scale, cfg Config) (*SuiteResult, error) {
	suite := &SuiteResult{Config: cfg}
	for _, spec := range PaperExperiments(small, large) {
		res, err := RunExperiment(spec, cfg)
		if err != nil {
			return suite, err
		}
		suite.Experiments = append(suite.Experiments, res)
	}
	return suite, nil
}
