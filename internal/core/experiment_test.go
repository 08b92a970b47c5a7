package core

import (
	"strings"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/queries"
	"docstore/internal/tpcds"
)

// testScales returns tiny scales so the full experiment matrix runs in a few
// seconds of test time while keeping every inter-table ratio.
func testScales() (tpcds.Scale, tpcds.Scale) {
	return tpcds.ScaleSmall.WithDivisor(4000), tpcds.ScaleLarge.WithDivisor(4000)
}

// testConfig disables latency simulation and runs each query once.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NetworkLatency = 0
	cfg.Runs = 1
	cfg.ChunkSizeBytes = 64 << 10
	return cfg
}

func TestPaperExperimentsMatchTable41(t *testing.T) {
	small, large := testScales()
	specs := PaperExperiments(small, large)
	if len(specs) != 6 {
		t.Fatalf("expected 6 experiments, got %d", len(specs))
	}
	want := []struct {
		scale string
		model DataModel
		env   Environment
	}{
		{"1GB", Normalized, Sharded},
		{"1GB", Normalized, StandAlone},
		{"1GB", Denormalized, StandAlone},
		{"5GB", Normalized, Sharded},
		{"5GB", Normalized, StandAlone},
		{"5GB", Denormalized, StandAlone},
	}
	for i, spec := range specs {
		if spec.Number != i+1 || spec.Scale.Name != want[i].scale || spec.Model != want[i].model || spec.Env != want[i].env {
			t.Fatalf("experiment %d = %+v", i+1, spec)
		}
		if spec.Label() == "" {
			t.Fatalf("empty label")
		}
	}
}

func TestSetupStandaloneAndShardedDeployments(t *testing.T) {
	small, _ := testScales()
	cfg := testConfig()

	standalone, err := Setup(ExperimentSpec{Number: 2, Scale: small, Model: Normalized, Env: StandAlone}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if standalone.Standalone == nil || standalone.Cluster != nil {
		t.Fatalf("stand-alone deployment misconfigured")
	}
	if standalone.Load == nil || standalone.Load.TotalDocuments() == 0 {
		t.Fatalf("dataset not loaded")
	}
	if standalone.Generator() == nil {
		t.Fatalf("generator missing")
	}
	wantSales := small.RowCount("store_sales")
	if n, _ := standalone.Store.Count("store_sales", nil); n != wantSales {
		t.Fatalf("store_sales count = %d, want %d", n, wantSales)
	}

	sharded, err := Setup(ExperimentSpec{Number: 1, Scale: small, Model: Normalized, Env: Sharded}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Cluster == nil || len(sharded.Cluster.Shards()) != cfg.Shards {
		t.Fatalf("sharded deployment misconfigured")
	}
	// The fact collections are sharded; data is spread over the shards.
	for fact := range ShardKeys() {
		if sharded.Cluster.ConfigServer().Metadata(DatabaseName(small)+"."+fact) == nil {
			t.Fatalf("%s is not sharded", fact)
		}
	}
	populated := 0
	for _, s := range sharded.Cluster.Shards() {
		if s.Database(DatabaseName(small)).Collection("store_sales").Count() > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("store_sales documents only landed on %d shards", populated)
	}
	if n, _ := sharded.Store.Count("store_sales", nil); n != wantSales {
		t.Fatalf("sharded store_sales count = %d, want %d", n, wantSales)
	}
	// Unknown environment errors.
	if _, err := Setup(ExperimentSpec{Scale: small, Model: Normalized, Env: "weird"}, cfg); err == nil {
		t.Fatalf("unknown environment should fail")
	}
}

// TestExperimentEquivalenceAcrossModelsAndEnvironments is the central
// correctness check of the reproduction: every query must return the same
// logical result on the normalized stand-alone deployment, the normalized
// sharded deployment, and the denormalized stand-alone deployment
// (Experiments 1-3 at the small scale).
func TestExperimentEquivalenceAcrossModelsAndEnvironments(t *testing.T) {
	small, _ := testScales()
	cfg := testConfig()

	specs := []ExperimentSpec{
		{Number: 1, Scale: small, Model: Normalized, Env: Sharded},
		{Number: 2, Scale: small, Model: Normalized, Env: StandAlone},
		{Number: 3, Scale: small, Model: Denormalized, Env: StandAlone},
	}
	deployments := make([]*Deployment, 0, len(specs))
	for _, spec := range specs {
		d, err := Setup(spec, cfg)
		if err != nil {
			t.Fatalf("setting up %s: %v", spec.Label(), err)
		}
		deployments = append(deployments, d)
	}

	for _, q := range queries.All() {
		results := make([][]*bson.Doc, len(deployments))
		for i, d := range deployments {
			var docs []*bson.Doc
			var err error
			if d.Spec.Model == Denormalized {
				docs, _, err = queries.RunDenormalized(d.Store, q, cfg.Params)
			} else {
				docs, _, err = queries.RunNormalized(d.Store, q, cfg.Params)
			}
			if err != nil {
				t.Fatalf("%s on %s: %v", q.Name, d.Spec.Label(), err)
			}
			results[i] = docs
		}
		// Queries 7, 21 and 46 must return data at this scale; Query 50 is a
		// very thin slice (returns in one month) and may legitimately be
		// empty, but must agree across deployments either way.
		if q.ID != 50 && len(results[1]) == 0 {
			t.Errorf("%s returned no documents on the normalized stand-alone deployment", q.Name)
		}
		for i := 1; i < len(results); i++ {
			if len(results[i]) != len(results[0]) {
				t.Errorf("%s: deployment %s returned %d docs, %s returned %d",
					q.Name, deployments[i].Spec.Label(), len(results[i]), deployments[0].Spec.Label(), len(results[0]))
				continue
			}
			for j := range results[i] {
				if !results[i][j].EqualUnordered(results[0][j]) {
					t.Errorf("%s: result %d differs between %s and %s:\n  %s\n  %s",
						q.Name, j, deployments[i].Spec.Label(), deployments[0].Spec.Label(),
						results[i][j], results[0][j])
					break
				}
			}
		}
	}
}

func TestRunExperimentAndSuiteReporting(t *testing.T) {
	small, large := testScales()
	cfg := testConfig()

	// A two-experiment mini-suite (normalized and denormalized stand-alone at
	// the small scale) exercises the result plumbing and every report
	// renderer without the cost of the full matrix.
	suite := &SuiteResult{Config: cfg}
	for _, spec := range []ExperimentSpec{
		{Number: 2, Scale: small, Model: Normalized, Env: StandAlone},
		{Number: 3, Scale: small, Model: Denormalized, Env: StandAlone},
	} {
		res, err := RunExperiment(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Queries) != 4 {
			t.Fatalf("experiment %d ran %d queries", spec.Number, len(res.Queries))
		}
		for _, q := range res.Queries {
			if q.Best <= 0 || len(q.Runs) != cfg.Runs {
				t.Fatalf("query run not measured: %+v", q)
			}
		}
		if res.QueryRun(7) == nil || res.QueryRun(99) != nil {
			t.Fatalf("QueryRun lookup broken")
		}
		suite.Experiments = append(suite.Experiments, res)
	}
	if suite.Experiment(2) == nil || suite.Experiment(99) != nil {
		t.Fatalf("Experiment lookup broken")
	}

	// The denormalized model must not do more work than the normalized model
	// on the same data — the headline result of the thesis. The comparison
	// uses the deterministic documents-examined counter instead of wall-clock
	// time: the normalized plan reads the fact collection plus every joined
	// dimension (and its intermediate collections), while the denormalized
	// plan reads only the pre-joined fact, so the counter ordering holds
	// regardless of scheduler load when packages run in parallel.
	norm, den := suite.Experiment(2), suite.Experiment(3)
	for _, id := range []int{7, 21, 46} {
		n, d := norm.QueryRun(id), den.QueryRun(id)
		if n.DocsExamined <= 0 {
			t.Errorf("query %d: normalized run examined no documents", id)
		}
		if d.DocsExamined > n.DocsExamined {
			t.Errorf("query %d: denormalized examined %d docs, more than normalized %d",
				id, d.DocsExamined, n.DocsExamined)
		}
	}

	// Report renderers produce the paper's table/figure headings.
	if !strings.Contains(Table41(PaperExperiments(small, large)), "Experiment 6") {
		t.Errorf("Table41 output incomplete")
	}
	if !strings.Contains(Table35(), "Query 50") {
		t.Errorf("Table35 output incomplete")
	}
	if !strings.Contains(Table36(small, large), "store_sales") {
		t.Errorf("Table36 output incomplete")
	}
	if !strings.Contains(Table43(norm, norm), "TOTAL") {
		t.Errorf("Table43 output incomplete")
	}
	if !strings.Contains(Figure49(norm, norm), "Figure 4.9") {
		t.Errorf("Figure49 output incomplete")
	}
	if !strings.Contains(Table44(norm, norm), "Query 21") {
		t.Errorf("Table44 output incomplete")
	}
	if !strings.Contains(Table45(suite), "Experiment 3") {
		t.Errorf("Table45 output incomplete")
	}
	if !strings.Contains(Figure410(suite, small.Name), "Figure 4.10") {
		t.Errorf("Figure410 output incomplete")
	}
	if Figure411(suite, large.Name) == "" {
		t.Errorf("Figure411 output empty")
	}
	if obs := Observations(suite, small.Name, large.Name); obs != "" && !strings.Contains(obs, "HOLDS") {
		t.Errorf("Observations output unexpected: %q", obs)
	}
}

func TestDefaultConfigAndDatabaseName(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Shards != 3 || cfg.Runs != 5 || cfg.Params.SalesYear != 2001 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
	if DatabaseName(tpcds.ScaleSmall) != "Dataset_1GB" || DatabaseName(tpcds.ScaleLarge) != "Dataset_5GB" {
		t.Fatalf("DatabaseName wrong")
	}
	keys := ShardKeys()
	if len(keys) != 3 || keys["store_sales"] == nil {
		t.Fatalf("ShardKeys = %v", keys)
	}
}
