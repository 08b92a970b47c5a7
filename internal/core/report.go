package core

import (
	"fmt"
	"strings"

	"docstore/internal/metrics"
	"docstore/internal/queries"
	"docstore/internal/tpcds"
)

// This file renders the paper's tables and figures from measured results.
// Each function mirrors one table or figure of the thesis and is regenerated
// by `cmd/bench` and by `bench_test.go`.

// Table41 renders the experimental-setup matrix (Table 4.1).
func Table41(specs []ExperimentSpec) string {
	t := metrics.NewTable("Table 4.1: Experimental Setups",
		"Dataset", "Data Model", "Deployment Environment", "Experiment")
	for _, s := range specs {
		t.AddRow(fmt.Sprintf("%s (%.4gGB loaded)", s.Scale.Name, s.Scale.LoadedGB), string(s.Model), string(s.Env),
			fmt.Sprintf("Experiment %d", s.Number))
	}
	return t.String()
}

// Table35 renders the query-feature profile (Table 3.5).
func Table35() string {
	t := metrics.NewTable("Table 3.5: Query Features",
		"Features/Queries", "Query 7", "Query 21", "Query 46", "Query 50")
	qs := queries.All()
	row := func(name string, pick func(queries.Features) int) {
		cells := []any{name}
		for _, q := range qs {
			cells = append(cells, pick(q.Features))
		}
		t.AddRow(cells...)
	}
	row("Number of tables", func(f queries.Features) int { return f.Tables })
	row("Number of aggregation functions", func(f queries.Features) int { return f.AggregationFunctions })
	row("Number of group by/order by clauses", func(f queries.Features) int { return f.GroupOrderByClauses })
	row("Number of conditional constructs", func(f queries.Features) int { return f.ConditionalConstructs })
	row("Number of correlated subquery(s)", func(f queries.Features) int { return f.CorrelatedSubqueries })
	return t.String()
}

// Table36 renders per-table row counts at both scales (Table 3.6): the
// paper's cardinalities and the generated (divided) ones actually loaded.
func Table36(small, large tpcds.Scale) string {
	schema := tpcds.NewSchema()
	t := metrics.NewTable("Table 3.6: Table Details for Datasets 1GB and 5GB",
		"Table", "Paper rows (1GB)", "Paper rows (5GB)", fmt.Sprintf("Generated (1GB, 1/%d)", small.Divisor), fmt.Sprintf("Generated (5GB, 1/%d)", large.Divisor))
	for _, name := range schema.TableNames() {
		t.AddRow(name,
			small.PaperRowCount(name), large.PaperRowCount(name),
			small.RowCount(name), large.RowCount(name))
	}
	return t.String()
}

// Table43 renders per-table data load times for both datasets (Table 4.3).
func Table43(small, large *ExperimentResult) string {
	t := metrics.NewTable("Table 4.3: Data Load Times",
		"TPC-DS Data File", fmt.Sprintf("%s Dataset Load Times", small.Spec.Scale.Name), fmt.Sprintf("%s Dataset Load Times", large.Spec.Scale.Name))
	schema := tpcds.NewSchema()
	for _, name := range schema.TableNames() {
		s := small.Load.Result(name)
		l := large.Load.Result(name)
		if s == nil || l == nil {
			continue
		}
		t.AddRow(name, metrics.FormatDuration(s.Duration), metrics.FormatDuration(l.Duration))
	}
	t.AddRow("TOTAL", metrics.FormatDuration(small.Load.Total), metrics.FormatDuration(large.Load.Total))
	return t.String()
}

// Figure49 renders the total data load time comparison (Figure 4.9).
func Figure49(small, large *ExperimentResult) string {
	f := metrics.Figure{Title: "Figure 4.9: Comparison of Data Load Times", YLabel: "s"}
	f.AddSeries("Data Load Times",
		[]string{small.Spec.Scale.Name + " dataset", large.Spec.Scale.Name + " dataset"},
		[]float64{small.Load.Total.Seconds(), large.Load.Total.Seconds()})
	return f.String()
}

// Table44 renders query selectivity (Table 4.4): the result-set size per
// query per dataset.
func Table44(small, large *ExperimentResult) string {
	t := metrics.NewTable("Table 4.4: Query Selectivity",
		"Dataset", "Query 7", "Query 21", "Query 46", "Query 50")
	row := func(res *ExperimentResult) {
		cells := []any{res.Spec.Scale.Name}
		for _, q := range queries.All() {
			if run := res.QueryRun(q.ID); run != nil {
				cells = append(cells, metrics.FormatBytes(run.ResultBytes))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	row(small)
	row(large)
	return t.String()
}

// Table45 renders the query execution runtimes of every experiment
// (Table 4.5).
func Table45(suite *SuiteResult) string {
	t := metrics.NewTable("Table 4.5: Query Execution Runtimes",
		"Experiment", "Query 7", "Query 21", "Query 46", "Query 50")
	for _, res := range suite.Experiments {
		cells := []any{fmt.Sprintf("Experiment %d", res.Spec.Number)}
		for _, q := range queries.All() {
			if run := res.QueryRun(q.ID); run != nil {
				cells = append(cells, metrics.FormatDuration(run.Best))
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// queryLabels are the x-axis labels of Figures 4.10 and 4.11.
func queryLabels() []string {
	labels := make([]string, 0, 4)
	for _, q := range queries.All() {
		labels = append(labels, fmt.Sprintf("Query %d", q.ID))
	}
	return labels
}

// figureForScale renders the per-scale query-runtime comparison
// (Figure 4.10 for the small dataset, Figure 4.11 for the large one).
func figureForScale(title string, suite *SuiteResult, scaleName string) string {
	f := metrics.Figure{Title: title, YLabel: "s"}
	series := []struct {
		name  string
		model DataModel
		env   Environment
	}{
		{"Denormalized Data Model on Stand-alone System", Denormalized, StandAlone},
		{"Normalized Data Model on Stand-alone System", Normalized, StandAlone},
		{"Normalized Data Model on Sharded System", Normalized, Sharded},
	}
	for _, s := range series {
		var values []float64
		found := false
		for _, res := range suite.Experiments {
			if res.Spec.Scale.Name != scaleName || res.Spec.Model != s.model || res.Spec.Env != s.env {
				continue
			}
			found = true
			for _, q := range queries.All() {
				if run := res.QueryRun(q.ID); run != nil {
					values = append(values, run.Best.Seconds())
				} else {
					values = append(values, 0)
				}
			}
		}
		if found {
			f.AddSeries(s.name, queryLabels(), values)
		}
	}
	return f.String()
}

// Figure410 renders the query-runtime comparison for the small dataset.
func Figure410(suite *SuiteResult, smallName string) string {
	return figureForScale("Figure 4.10: Query Execution Times, "+smallName+" dataset", suite, smallName)
}

// Figure411 renders the query-runtime comparison for the large dataset.
func Figure411(suite *SuiteResult, largeName string) string {
	return figureForScale("Figure 4.11: Query Execution Times, "+largeName+" dataset", suite, largeName)
}

// Observations checks the qualitative findings of §4.3 against a suite result
// and reports each as satisfied or not.
func Observations(suite *SuiteResult, smallName, largeName string) string {
	var b strings.Builder
	check := func(name string, ok bool) {
		status := "HOLDS"
		if !ok {
			status = "DOES NOT HOLD"
		}
		fmt.Fprintf(&b, "[%s] %s\n", status, name)
	}
	for _, scaleName := range []string{smallName, largeName} {
		denormExp := suite.experimentFor(scaleName, Denormalized, StandAlone)
		normStandalone := suite.experimentFor(scaleName, Normalized, StandAlone)
		normSharded := suite.experimentFor(scaleName, Normalized, Sharded)
		if denormExp == nil || normStandalone == nil || normSharded == nil {
			continue
		}
		// Observation (i): the denormalized stand-alone setups are fastest for
		// every query.
		fastest := true
		for _, q := range queries.All() {
			d, ns, nsh := denormExp.QueryRun(q.ID), normStandalone.QueryRun(q.ID), normSharded.QueryRun(q.ID)
			if d == nil || ns == nil || nsh == nil || d.Best > ns.Best || d.Best > nsh.Best {
				fastest = false
			}
		}
		check(fmt.Sprintf("%s: denormalized stand-alone is fastest for every query (§4.3 i)", scaleName), fastest)
		// Observation (ii): among normalized setups, stand-alone beats sharded
		// for queries 7, 21 and 46.
		broadcastSlower := true
		for _, id := range []int{7, 21, 46} {
			ns, nsh := normStandalone.QueryRun(id), normSharded.QueryRun(id)
			if ns == nil || nsh == nil || ns.Best > nsh.Best {
				broadcastSlower = false
			}
		}
		check(fmt.Sprintf("%s: normalized stand-alone beats sharded for queries 7/21/46 (§4.3 ii)", scaleName), broadcastSlower)
		// Observation (iii): query 50, which carries the shard key, is faster
		// on the sharded cluster.
		ns, nsh := normStandalone.QueryRun(50), normSharded.QueryRun(50)
		check(fmt.Sprintf("%s: query 50 is faster on the sharded cluster (§4.3 iii)", scaleName),
			ns != nil && nsh != nil && nsh.Best < ns.Best)
	}
	return b.String()
}

func (s *SuiteResult) experimentFor(scaleName string, model DataModel, env Environment) *ExperimentResult {
	for _, e := range s.Experiments {
		if e.Spec.Scale.Name == scaleName && e.Spec.Model == model && e.Spec.Env == env {
			return e
		}
	}
	return nil
}

// FullReport renders every table and figure of the evaluation for a suite.
func FullReport(suite *SuiteResult, small, large tpcds.Scale) string {
	var b strings.Builder
	smallRes := suite.experimentFor(small.Name, Normalized, StandAlone)
	largeRes := suite.experimentFor(large.Name, Normalized, StandAlone)
	b.WriteString(Table41(PaperExperiments(small, large)))
	b.WriteString("\n")
	b.WriteString(Table35())
	b.WriteString("\n")
	b.WriteString(Table36(small, large))
	b.WriteString("\n")
	if smallRes != nil && largeRes != nil {
		b.WriteString(Table43(smallRes, largeRes))
		b.WriteString("\n")
		b.WriteString(Figure49(smallRes, largeRes))
		b.WriteString("\n")
		b.WriteString(Table44(smallRes, largeRes))
		b.WriteString("\n")
	}
	b.WriteString(Table45(suite))
	b.WriteString("\n")
	b.WriteString(Figure410(suite, small.Name))
	b.WriteString("\n")
	b.WriteString(Figure411(suite, large.Name))
	b.WriteString("\n")
	b.WriteString(Observations(suite, small.Name, large.Name))
	return b.String()
}
