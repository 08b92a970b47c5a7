// Migration: run the thesis' data-migration algorithm (Figure 4.3) from
// pipe-delimited .dat files into the document store, compare the stand-alone
// and sharded environments, and show the translated (normalized) execution of
// Query 46 on both — the Experiment 1 vs Experiment 2 comparison in miniature.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"docstore/internal/cluster"
	"docstore/internal/core"
	"docstore/internal/driver"
	"docstore/internal/metrics"
	"docstore/internal/migrate"
	"docstore/internal/mongod"
	"docstore/internal/queries"
	"docstore/internal/tpcds"
)

func main() {
	scale := tpcds.ScaleSmall.WithDivisor(2000)
	gen := tpcds.NewGenerator(scale, 1)

	// Write the .dat files the way dsdgen would (Appendix A), then load them
	// back through the migration algorithm.
	dir, err := os.MkdirTemp("", "tpcds-dat-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	files, err := gen.GenerateDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d .dat files under %s\n", len(files), dir)

	// Stand-alone environment.
	standalone := driver.NewStandalone(mongod.NewServer(mongod.Options{Name: "standalone"}).Database("Dataset_1GB"))
	// Sharded environment: 3 shards, fact collections sharded as in the
	// thesis' experiments.
	cl := cluster.MustBuild(cluster.Config{Shards: 3, ParallelScatter: true})
	for fact, key := range core.ShardKeys() {
		if _, err := cl.ShardCollection("Dataset_1GB", fact, key); err != nil {
			log.Fatal(err)
		}
	}
	sharded := driver.NewSharded(cl.Router(), "Dataset_1GB")

	schema := gen.Schema()
	for _, env := range []struct {
		name  string
		store driver.Store
	}{{"stand-alone", standalone}, {"sharded", sharded}} {
		start := time.Now()
		totalDocs := 0
		for _, table := range schema.TableNames() {
			f, err := os.Open(filepath.Join(dir, tpcds.DatFileName(table)))
			if err != nil {
				log.Fatal(err)
			}
			res, err := migrate.LoadTable(env.store, schema.MustTable(table), f)
			f.Close()
			if err != nil {
				log.Fatalf("loading %s into %s: %v", table, env.name, err)
			}
			totalDocs += res.Documents
		}
		if err := migrate.EnsureQueryIndexes(env.store, schema); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s loaded %d documents from .dat files in %s\n",
			env.name, totalDocs, metrics.FormatDuration(time.Since(start)))
	}

	// The fact data really is distributed across the shards.
	fmt.Println("\nstore_sales distribution across shards:")
	for _, s := range cl.Shards() {
		fmt.Printf("  %-8s %d documents\n", s.Name(), s.Database("Dataset_1GB").Collection("store_sales").Count())
	}

	// Query 46 through the Figure 4.8 translation on both environments.
	q46 := queries.MustByID(46)
	params := queries.DefaultParams()
	for _, env := range []struct {
		name  string
		store driver.Store
	}{{"stand-alone", standalone}, {"sharded", sharded}} {
		docs, elapsed, err := queries.RunNormalized(env.store, q46, params)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nQuery 46 on the %s environment: %d result rows in %s\n",
			env.name, len(docs), metrics.FormatDuration(elapsed))
		if len(docs) > 0 {
			fmt.Printf("  first row: %s\n", docs[0])
		}
	}
	stats := cl.Router().Stats()
	fmt.Printf("\nrouter statistics: %d targeted, %d broadcast queries, %d shard calls\n",
		stats.TargetedQueries, stats.BroadcastQueries, stats.ShardCalls)
}
