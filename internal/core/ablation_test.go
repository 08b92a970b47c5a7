package core

import (
	"strings"
	"testing"

	"docstore/internal/bson"
	"docstore/internal/storage"
	"docstore/internal/tpcds"
)

// TestShardKeyAblationTellsCausesApart: Query 50 returns the same rows on
// the four deployments of the shard-key ablation, and the two stand-alone
// ones differ in how the query's driving find reads store_sales: by the
// shard key's index when it is built, by a collection scan as Experiment 5
// builds the deployment. The plans are read, not timed.
func TestShardKeyAblationTellsCausesApart(t *testing.T) {
	scale := tpcds.ScaleSmall.WithDivisor(1000) // Query 50 returns rows here
	cfg := testConfig()
	res, err := RunShardKeyAblation(scale, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results[0]) == 0 {
		t.Fatalf("Query 50 returned no rows: the comparison would be empty")
	}
	for i := 1; i < len(res.Results); i++ {
		if len(res.Results[i]) != len(res.Results[0]) {
			t.Fatalf("deployment %d returned %d rows, the paper's sharded one %d", i, len(res.Results[i]), len(res.Results[0]))
		}
		for j, d := range res.Results[i] {
			if !d.Equal(res.Results[0][j]) {
				t.Fatalf("deployment %d row %d:\n %s\nthe paper's sharded one:\n %s", i, j, d, res.Results[0][j])
			}
		}
	}
	out := res.String()
	for _, row := range []string{"ss_ticket_number (paper)", res.AlternateKey, "stand-alone (Experiment 5)", "stand-alone + ss_ticket_number index"} {
		if !strings.Contains(out, row) {
			t.Errorf("report has no %q row:\n%s", row, out)
		}
	}

	for _, c := range []struct {
		matched bool
		index   string // "" is a collection scan
	}{{false, ""}, {true, "ss_ticket_number_hashed"}} {
		d, err := setupStandaloneQuery50(scale, cfg, c.matched)
		if err != nil {
			t.Fatal(err)
		}
		db := d.Standalone.Database(DatabaseName(scale))
		sample, err := db.Find("store_sales", nil, storage.FindOptions{Limit: 3})
		if err != nil || len(sample) == 0 {
			t.Fatalf("sampling store_sales: %d documents, %v", len(sample), err)
		}
		tickets := make([]any, len(sample))
		for i, s := range sample {
			tickets[i], _ = s.Get("ss_ticket_number")
		}
		_, plan, err := db.FindWithPlan("store_sales", bson.D("ss_ticket_number", bson.D("$in", tickets)), storage.FindOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.IndexUsed != c.index {
			t.Errorf("matched=%v: Query 50's driving find planned %s, want index %q", c.matched, plan, c.index)
		}
	}
}
