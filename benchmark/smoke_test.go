package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"docstore/benchmark/internal/span"
)

func readDeclared(t *testing.T) benchmarkSpec {
	t.Helper()
	d, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The program's metric tables and BENCHMARK.json must name the same metrics
// with the same units, and the same four workloads.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	same := func(what string, have []metricSpec, want []declaredMetric) {
		if len(have) != len(want) {
			t.Errorf("%s: the program declares %d metrics, BENCHMARK.json %d", what, len(have), len(want))
		}
		units := make(map[string]string)
		for _, m := range want {
			units[m.Name] = m.Unit
		}
		for _, m := range have {
			if unit, ok := units[m.name]; !ok {
				t.Errorf("%s: %s is not in BENCHMARK.json", what, m.name)
			} else if unit != m.unit {
				t.Errorf("%s: %s has unit %s, BENCHMARK.json says %s", what, m.name, m.unit, unit)
			}
		}
	}
	same("end_to_end", endToEnd, d.EndToEnd)
	same("per_layer", perLayer, d.PerLayer)
	if len(d.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(d.Workloads), len(workloadOrder))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, w.Name, workloadOrder[i])
		}
		if _, ok := slotNames[w.Name]; !ok {
			t.Errorf("workload %s has no slot names", w.Name)
		}
	}
}

// BENCHMARK.json records the defaults of the size flags, in its command,
// and of the run length: the program's own defaults must be the same, so
// that running it by hand measures what the bounds were calibrated on.
func TestFlagDefaultsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	if d.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d in BENCHMARK.json, the -seconds default %d", d.RunSeconds, defaultSeconds)
	}
	recorded := make(map[string]string)
	for i := 0; i+1 < len(d.Command); i++ {
		if strings.HasPrefix(d.Command[i], "--") {
			recorded[strings.TrimPrefix(d.Command[i], "--")] = d.Command[i+1]
		}
	}
	for flagName, want := range map[string]int{"divisor": defaultDivisor, "docs": defaultDocs} {
		if recorded[flagName] != strconv.Itoa(want) {
			t.Errorf("BENCHMARK.json's command records --%s %q, the program's default is %d", flagName, recorded[flagName], want)
		}
	}
}

// runToy runs one workload at toy size and returns its parsed result line.
func runToy(t *testing.T, workload string, trace bool) resultJSON {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 1, trace: trace, divisor: 2000, docs: 2000, setups: 1, out: t.TempDir()}
	var stdout, stderr bytes.Buffer
	ok, err := runOne(cfg, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stderr.String())
	}
	if !ok {
		t.Fatalf("%s: the run was incorrect:\n%s", workload, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("%s: want exactly one result line, got %d", workload, len(lines))
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[0]), &res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	if trace {
		data, err := os.ReadFile(filepath.Join(cfg.out, workload+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span.Span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: trace.json: %v", workload, err)
		}
		if len(spans) == 0 {
			t.Fatalf("%s: trace.json holds no spans", workload)
		}
		if err := span.Check(spans); err != nil {
			t.Fatalf("%s: trace.json: %v", workload, err)
		}
	}
	return res
}

// checkMetrics asserts the result holds exactly the declared metrics, each
// once (a JSON object cannot repeat a key; finish rejects a repeated row),
// with the declared unit and a finite value.
func checkMetrics(t *testing.T, workload string, res resultJSON, want []declaredMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s was not printed", workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s printed in %s, declared in %s", workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s is not finite", workload, m.Name)
		}
	}
}

// Smoke: every workload at toy size with tracing off, and every workload's
// traced variant, print exactly the metrics BENCHMARK.json declares. No
// end-to-end metric is ever 0; a per-layer metric is 0 only for a layer the
// workload never enters.
func TestSmokeEveryWorkload(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloadOrder {
		t.Run(w, func(t *testing.T) {
			res := runToy(t, w, false)
			checkMetrics(t, w, res, d.EndToEnd)
			for name, m := range res.Metrics {
				if m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, name)
				}
			}
		})
		t.Run(w+"/trace", func(t *testing.T) {
			checkMetrics(t, w, runToy(t, w, true), d.PerLayer)
		})
	}
}

func TestFinishWithholdsMetricsOfAnIncorrectRun(t *testing.T) {
	full := func() *report {
		rep := &report{attempted: 10}
		for _, s := range endToEnd {
			rep.add(s.name, 1.5, s.unit, "")
		}
		return rep
	}
	cfg := config{workload: "oltp_wire"}
	var sink bytes.Buffer
	if res := finish(cfg, full(), &sink); !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("a complete report must be correct, got %+v", res)
	}
	cases := map[string]func(*report){
		"failed operation":  func(r *report) { r.failed = 1 },
		"failed check":      func(r *report) { r.problem("sum of v is wrong") },
		"undeclared metric": func(r *report) { r.add("surprise_ms", 1, "ms", "") },
		"missing metric":    func(r *report) { r.rows = r.rows[1:] },
		"absent end-to-end": func(r *report) { r.rows[0].absent = true },
		"repeated metric":   func(r *report) { r.add("setup_s", 2, "s", "") },
		"wrong unit":        func(r *report) { r.rows[0].unit = "ms" },
		"not finite":        func(r *report) { r.rows[0].value = math.NaN() },
		"nothing attempted": func(r *report) { r.attempted = 0 },
	}
	for name, spoil := range cases {
		rep := full()
		spoil(rep)
		if res := finish(cfg, rep, &sink); res.Correct || len(res.Metrics) != 0 {
			t.Errorf("%s: want an incorrect result with no metrics, got %+v", name, res)
		}
	}
}

func TestSummarizeJudgesSpreadAgainstBound(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"setup_s","better":"lower","bound":0.25},{"name":"time1_ms","better":"lower","bound":0.1}]}`), 0o644)
	write := func(values []float64) string {
		var b strings.Builder
		for _, v := range values {
			line, _ := json.Marshal(resultJSON{Correct: true, Attempted: 1, Metrics: map[string]metricJSON{
				"setup_s": {v * 10, "s"}, "time1_ms": {v, "ms"}}})
			b.WriteString("oltp_wire\t" + string(line) + "\n")
		}
		path := filepath.Join(dir, "log.tsv")
		os.WriteFile(path, []byte(b.String()), 0o644)
		return path
	}
	var out bytes.Buffer
	// Quartiles of 1.00..1.09 are 1.0175 and 1.0725: a spread of 0.053.
	steady := []float64{1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09}
	if ok, err := summarize(write(steady), spec, &out); err != nil || !ok {
		t.Fatalf("a spread within the bound must pass: ok=%v err=%v\n%s", ok, err, out.String())
	}
	// Widen the same shape sixfold: 0.32 is over time1_ms's 0.1 bound.
	// setup_s has the same spread and would be over its 0.25 too, but its
	// spread is not judged.
	wide := make([]float64, len(steady))
	for i, v := range steady {
		wide[i] = 1 + (v-1)*6
	}
	out.Reset()
	if ok, err := summarize(write(wide), spec, &out); err != nil || ok {
		t.Fatalf("a spread over the bound must fail: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "OVER THE BOUND") || !strings.Contains(out.String(), "not judged") {
		t.Errorf("summary does not name the verdicts:\n%s", out.String())
	}
	// A run that failed its checks, and one that died without a result line,
	// are reported and fail the summary; the steady runs are still judged.
	path := write(steady)
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString("oltp_wire\t{\"correct\":false,\"attempted\":9,\"failed\":2,\"metrics\":{}}\noltp_wire\tpanic: boom\n")
	f.Close()
	out.Reset()
	if ok, err := summarize(path, spec, &out); err != nil || ok {
		t.Fatalf("an incorrect run must fail the summary: ok=%v err=%v", ok, err)
	}
	for _, want := range []string{"a run was incorrect (2 of 9", "without a result line", "n=10"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
}

// A layer the workload never enters is left out of the table and is 0 in
// the result line.
func TestAbsentRowsAreLeftOutOfTheTable(t *testing.T) {
	rep := &report{attempted: 1}
	for _, s := range perLayer {
		if strings.HasPrefix(s.name, "mongos.") {
			rep.addAbsent(s)
		} else {
			rep.add(s.name, 2, s.unit, "")
		}
	}
	var table bytes.Buffer
	res := finish(config{workload: "oltp_wire", trace: true}, rep, &table)
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("want a correct result with every per-layer metric, got %+v\n%s", res, table.String())
	}
	if m := res.Metrics["mongos.shard_calls"]; m.Value != 0 || m.Unit != "count" {
		t.Errorf("absent metric in the result line: %+v, want 0 count", m)
	}
	if strings.Contains(table.String(), "\n  mongos.shard_calls") || !strings.Contains(table.String(), "not on this workload's path") {
		t.Errorf("the table must leave absent metrics out and say so:\n%s", table.String())
	}
}
