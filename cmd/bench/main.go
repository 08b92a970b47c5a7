// Command bench runs the thesis' experiment matrix and regenerates its tables
// and figures:
//
//	bench                       # full suite: Tables 3.5/3.6/4.1/4.3/4.4/4.5, Figures 4.9/4.10/4.11
//	bench -table 4.5            # only the query-runtime table
//	bench -ablation shardkey    # one of the ablation studies (shardkey|index|scatter)
//	bench -divisor 50 -runs 5   # closer to paper scale, best-of-five runs
//
// Absolute times are not comparable to the paper's AWS cluster; the shape of
// the comparisons (which setup wins, per query) is what the run reproduces —
// the Observations section at the end checks the paper's §4.3 findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"docstore/internal/core"
	"docstore/internal/tpcds"
)

func main() {
	divisor := flag.Int("divisor", tpcds.DefaultDivisor, "row-count reduction divisor (1 = paper scale)")
	runs := flag.Int("runs", 3, "query executions per experiment (best run reported)")
	shards := flag.Int("shards", 3, "number of shards in the sharded environments")
	latency := flag.Duration("latency", 500*time.Microsecond, "simulated router-to-shard network latency")
	seed := flag.Int64("seed", 1, "data generator seed")
	table := flag.String("table", "", "render only one table (3.5, 3.6, 4.1, 4.3, 4.4, 4.5)")
	figure := flag.String("figure", "", "render only one figure (4.9, 4.10, 4.11)")
	ablation := flag.String("ablation", "", "run one ablation instead of the suite (shardkey, index, scatter)")
	extended := flag.Bool("extended", false, "also run the future-work experiments 7/8 (denormalized model on the sharded cluster)")
	flag.Parse()

	small := tpcds.ScaleSmall.WithDivisor(*divisor)
	large := tpcds.ScaleLarge.WithDivisor(*divisor)
	cfg := core.DefaultConfig()
	cfg.Runs = *runs
	cfg.Shards = *shards
	cfg.NetworkLatency = *latency
	cfg.Seed = *seed

	// Static tables need no measurements.
	switch *table {
	case "3.5":
		fmt.Print(core.Table35())
		return
	case "3.6":
		fmt.Print(core.Table36(small, large))
		return
	case "4.1":
		fmt.Print(core.Table41(core.PaperExperiments(small, large)))
		return
	}

	if *ablation != "" {
		runAblation(*ablation, small, cfg)
		return
	}

	fmt.Printf("Running the experiment suite at divisor %d (store_sales: %d / %d rows)...\n\n",
		*divisor, small.RowCount("store_sales"), large.RowCount("store_sales"))
	start := time.Now()
	var suite *core.SuiteResult
	var err error
	if *extended {
		suite, err = core.RunExtendedSuite(small, large, cfg)
	} else {
		suite, err = core.RunSuite(small, large, cfg)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("suite completed in %s\n\n", time.Since(start).Round(time.Millisecond))

	smallStandalone := findExperiment(suite, small.Name)
	largeStandalone := findExperiment(suite, large.Name)

	switch {
	case *table == "4.3":
		fmt.Print(core.Table43(smallStandalone, largeStandalone))
	case *table == "4.4":
		fmt.Print(core.Table44(smallStandalone, largeStandalone))
	case *table == "4.5":
		fmt.Print(core.Table45(suite))
	case *figure == "4.9":
		fmt.Print(core.Figure49(smallStandalone, largeStandalone))
	case *figure == "4.10":
		fmt.Print(core.Figure410(suite, small.Name))
	case *figure == "4.11":
		fmt.Print(core.Figure411(suite, large.Name))
	default:
		fmt.Print(core.FullReport(suite, small, large))
		if *extended {
			fmt.Println()
			fmt.Print(core.ExtensionReport(suite, small.Name, large.Name))
		}
	}
}

func findExperiment(suite *core.SuiteResult, scaleName string) *core.ExperimentResult {
	for _, e := range suite.Experiments {
		if e.Spec.Scale.Name == scaleName && e.Spec.Model == core.Normalized && e.Spec.Env == core.StandAlone {
			return e
		}
	}
	return suite.Experiments[0]
}

func runAblation(name string, scale tpcds.Scale, cfg core.Config) {
	switch strings.ToLower(name) {
	case "shardkey":
		res, err := core.RunShardKeyAblation(scale, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.String())
	case "index":
		res, err := core.RunIndexAblation(scale, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.String())
	case "scatter":
		res, err := core.RunScatterAblation(scale, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.String())
	default:
		fatal(fmt.Errorf("unknown ablation %q (use shardkey, index or scatter)", name))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}
