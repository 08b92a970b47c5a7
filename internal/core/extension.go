package core

import (
	"fmt"
	"strings"

	"docstore/internal/metrics"
	"docstore/internal/queries"
	"docstore/internal/tpcds"
)

// The thesis' future work (§5.2) proposes deploying the denormalized data
// model on the sharded cluster and studying its performance, and using
// multiple threads for aggregation. This file implements the first as two
// additional experiments (7 and 8) that extend Table 4.1, and the comparison
// report that goes with them. The multithreading item is translate.Exec,
// which runs a normalized plan's independent calls side by side.

// ExtensionExperiments returns the two future-work setups: the denormalized
// data model deployed on the sharded cluster at both scales.
func ExtensionExperiments(small, large tpcds.Scale) []ExperimentSpec {
	return []ExperimentSpec{
		{Number: 7, Scale: small, Model: Denormalized, Env: Sharded},
		{Number: 8, Scale: large, Model: Denormalized, Env: Sharded},
	}
}

// RunExtendedSuite runs the six paper experiments plus the two future-work
// experiments.
func RunExtendedSuite(small, large tpcds.Scale, cfg Config) (*SuiteResult, error) {
	suite, err := RunSuite(small, large, cfg)
	if err != nil {
		return suite, err
	}
	for _, spec := range ExtensionExperiments(small, large) {
		res, err := RunExperiment(spec, cfg)
		if err != nil {
			return suite, err
		}
		suite.Experiments = append(suite.Experiments, res)
	}
	return suite, nil
}

// ExtensionReport compares the denormalized model on the sharded cluster
// (Experiments 7/8) against its stand-alone counterpart (Experiments 3/6),
// answering the question §5.2 poses.
func ExtensionReport(suite *SuiteResult, smallName, largeName string) string {
	var b strings.Builder
	t := metrics.NewTable("Extension: denormalized data model, stand-alone vs sharded (thesis §5.2 future work)",
		"Dataset", "Query", "Denormalized stand-alone", "Denormalized sharded", "Sharded/stand-alone")
	for _, scaleName := range []string{smallName, largeName} {
		standalone := suite.experimentFor(scaleName, Denormalized, StandAlone)
		sharded := suite.experimentFor(scaleName, Denormalized, Sharded)
		if standalone == nil || sharded == nil {
			continue
		}
		for _, q := range queries.All() {
			sa, sh := standalone.QueryRun(q.ID), sharded.QueryRun(q.ID)
			if sa == nil || sh == nil {
				continue
			}
			ratio := "-"
			if sa.Best > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(sh.Best)/float64(sa.Best))
			}
			t.AddRow(scaleName, fmt.Sprintf("Query %d", q.ID),
				metrics.FormatDuration(sa.Best), metrics.FormatDuration(sh.Best), ratio)
		}
	}
	if t.Len() == 0 {
		return ""
	}
	b.WriteString(t.String())
	return b.String()
}
