// Command benchmark is the repository's one benchmark: four workloads, a
// fixed set of end-to-end metrics measured with tracing off, and a traced
// variant that produces the per-layer metrics. BENCHMARK.json at the root of
// the repository declares the metric names, units and regression bounds;
// README.md in this directory says why each workload exists and which layer
// metric is predicted to move which end-to-end metric.
//
//	go run . -workload oltp_wire -seed 1            # end-to-end metrics
//	go run . -workload oltp_wire -seed 1 -trace 1   # per-layer metrics + out/oltp_wire.trace.json
//	go run . -all -seed 1
//
// The last line of standard output is one JSON object per workload run:
// {"correct", "attempted", "failed", "metrics"}. Everything human-readable
// goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"docstore/benchmark/internal/stats"
)

// config is one run's settings. Only the sizes are flags: the smoke test
// runs at toy size and the driver at the defaults recorded in BENCHMARK.json.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// divisor scales the TPC-DS row counts of the analytic workloads.
	divisor int
	// docs is the bulk-loaded collection size of oltp_wire;
	// ingest_replicated loads a fifth of it.
	docs int
	// out receives <workload>.trace.json and the scratch data directories.
	out string
	// setups overrides how many times an untraced run sets up; 0 keeps the
	// workload's own count. Only the smoke test sets it.
	setups int
}

func (c config) measured() time.Duration { return time.Duration(c.seconds) * time.Second }

// setupCount is how many times a run sets up, given the workload's own
// count: once when traced, because the traced run reports no setup_s.
func (c config) setupCount(own int) int {
	switch {
	case c.trace:
		return 1
	case c.setups > 0:
		return c.setups
	}
	return own
}

// metricSpec names one metric and its unit. The two tables below are the
// program's side of BENCHMARK.json; the smoke test keeps them in step.
type metricSpec struct{ name, unit string }

const (
	// timeSlots is how many named times each workload reports.
	timeSlots = 5
	// windows is how many equal windows each measured phase is cut into. A
	// metric is computed per window and the median of the windows reported.
	windows = 5
	// judgedTail is the highest tail percentile an end-to-end metric reports.
	// Taking the processors from the program for 4 ms in every 50, as a busy
	// neighbour on the shared host does, tripled ingest_replicated's p99 and
	// moved its p90 by 2 % (README.md, "Windows, medians, tails"): a p99 reads
	// how often the sandbox preempted the run, and two sets of runs of one
	// commit did not agree on it within any bound. The traced run's open loop
	// has no bound to keep and reports up to openTail, where the latency
	// limits are stated.
	judgedTail = 0.90
	openTail   = 0.99
	// The defaults of -seconds, -divisor and -docs. BENCHMARK.json records
	// them, as run_seconds and in its command.
	defaultSeconds = 22
	defaultDivisor = 1000
	defaultDocs    = 100000
)

// endToEnd lists the end-to-end metrics, printed with -trace 0. The driver
// of BENCHMARK.json wants every workload to print every declared metric, so
// the times each workload has of its own (q7_ms, read_p99_us, recovery_s, ...)
// go into five slots; slotNames says which time a slot holds on a workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"time1_ms", "ms"},
	{"time2_ms", "ms"},
	{"time3_ms", "ms"},
	{"time4_ms", "ms"},
	{"time5_ms", "ms"},
}

// slotNames maps each workload's time1_ms..time5_ms to the time it holds,
// under the name the issue that asked for the benchmark gave it.
var slotNames = map[string][timeSlots]string{
	"analytic_denorm":   {"q7_ms", "q21_ms", "q46_ms", "q50_ms", "queryset_tail_ms"},
	"analytic_sharded":  {"q7_ms", "q21_ms", "q46_ms", "q50_ms", "queryset_max_ms"},
	"oltp_wire":         {"read_p50", "scan_p50", "write_p50", "read_tail", "write_tail"},
	"ingest_replicated": {"insert_p50", "set_p50", "insert_tail", "set_tail", "recovery"},
}

// workloads maps each workload to its runner.
var workloads = map[string]func(config, *report) error{
	"analytic_denorm":   func(c config, r *report) error { return runAnalytic(c, r, false) },
	"analytic_sharded":  func(c config, r *report) error { return runAnalytic(c, r, true) },
	"oltp_wire":         func(c config, r *report) error { return runWire(c, r, false) },
	"ingest_replicated": func(c config, r *report) error { return runWire(c, r, true) },
}

var workloadOrder = []string{"analytic_denorm", "analytic_sharded", "oltp_wire", "ingest_replicated"}

// row is one reported metric with the detail printed beside it.
type row struct {
	name   string
	value  float64
	unit   string
	detail string
	// absent marks a per-layer metric of a layer the workload never enters.
	// The table leaves it out; the result line, which must carry every
	// declared name, carries 0.
	absent bool
}

// report collects what one workload run measured and checked.
type report struct {
	rows      []row
	attempted int
	failed    int
	// problems lists failed correctness checks; any entry fails the run.
	problems []string
}

func (r *report) add(name string, value float64, unit, detail string) {
	r.rows = append(r.rows, row{name: name, value: value, unit: unit, detail: detail})
}

// addWindowed reports a metric computed per window: the value is the median
// of the per-window values, with their quartiles, every window's value and
// the sample count beside it.
func (r *report) addWindowed(name string, w stats.Windowed, unit, what string) {
	r.add(name, w.Median, unit, fmt.Sprintf("%s; windows q1 %.4g q3 %.4g %.4g; n=%d", what, w.Q1, w.Q3, w.PerWindow, w.N))
}

// addSlot reports one of the workload's five times under its slot name.
func (r *report) addSlot(workload string, slot int, w stats.Windowed, what string) {
	r.addWindowed(fmt.Sprintf("time%d_ms", slot), w, "ms", slotNames[workload][slot-1]+": "+what)
}

// addAbsent declares that the workload never enters the layers these
// metrics describe.
func (r *report) addAbsent(specs ...metricSpec) {
	for _, s := range specs {
		r.rows = append(r.rows, row{name: s.name, unit: s.unit, absent: true})
	}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// heapMB forces a collection and returns the live heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// finish checks the report against the declared metric set, prints the
// human-readable table to w and returns the result line. A run with a failed
// check, a failed operation, or a metric that is missing, undeclared,
// repeated or not finite is incorrect and its metrics are withheld.
func finish(cfg config, rep *report, w io.Writer) resultJSON {
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	units := make(map[string]string, len(specs))
	for _, s := range specs {
		units[s.name] = s.unit
	}
	metrics := make(map[string]metricJSON, len(specs))
	for _, row := range rep.rows {
		unit, declared := units[row.name]
		switch {
		case row.absent && !cfg.trace:
			rep.problem("end-to-end metric %s was not measured", row.name)
		case !declared:
			rep.problem("metric %s is not declared", row.name)
		case unit != row.unit:
			rep.problem("metric %s has unit %s, declared %s", row.name, row.unit, unit)
		case math.IsNaN(row.value) || math.IsInf(row.value, 0):
			rep.problem("metric %s is not finite", row.name)
		}
		if _, dup := metrics[row.name]; dup {
			rep.problem("metric %s is reported twice", row.name)
		}
		metrics[row.name] = metricJSON{row.value, row.unit}
	}
	for _, s := range specs {
		if _, ok := metrics[s.name]; !ok {
			rep.problem("metric %s was not measured", s.name)
		}
	}
	if rep.attempted < 1 {
		rep.problem("no operation was attempted")
	}
	if rep.failed > 0 {
		rep.problem("%d of %d operations failed", rep.failed, rep.attempted)
	}

	fmt.Fprintf(w, "== %s seed=%d seconds=%d trace=%v: attempted %d, failed %d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, rep.attempted, rep.failed)
	sort.SliceStable(rep.rows, func(i, j int) bool { return rep.rows[i].name < rep.rows[j].name })
	var absent []string
	for _, row := range rep.rows {
		if row.absent {
			absent = append(absent, row.name)
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", row.name, row.value, row.unit, row.detail)
	}
	if len(absent) > 0 {
		fmt.Fprintf(w, "  not on this workload's path (0 in the result line): %s\n", strings.Join(absent, " "))
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}

	res := resultJSON{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics}
	if !res.Correct {
		res.Metrics = map[string]metricJSON{}
	}
	return res
}

// runOne runs a workload and prints its result line to stdout.
func runOne(cfg config, stdout, stderr io.Writer) (bool, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return false, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadOrder)
	}
	rep := &report{}
	start := time.Now()
	if err := run(cfg, rep); err != nil {
		return false, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res := finish(cfg, rep, stderr)
	fmt.Fprintf(stderr, "  (%s took %.1f s in all)\n", cfg.workload, time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res.Correct, nil
}

func main() {
	var cfg config
	var all bool
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: analytic_denorm, analytic_sharded, oltp_wire or ingest_replicated")
	flag.BoolVar(&all, "all", false, "run the four workloads in sequence")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the query order (analytic) and of the documents, keys and operation mix (wire)")
	flag.IntVar(&cfg.seconds, "seconds", defaultSeconds, "measured seconds per run (set-up, warm-up and checks come on top)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced run that reports the per-layer metrics")
	flag.IntVar(&cfg.divisor, "divisor", defaultDivisor, "analytic workloads: divisor of the TPC-DS 1GB row counts")
	flag.IntVar(&cfg.docs, "docs", defaultDocs, "oltp_wire: documents bulk-loaded at set-up (ingest_replicated loads a fifth)")
	flag.StringVar(&cfg.out, "out", "out", "directory for <workload>.trace.json and scratch data directories")
	summary := flag.String("summarize", "", "summarize a log written by repeat.sh against -spec, then exit")
	specPath := flag.String("spec", "BENCHMARK.json", "with -summarize: the BENCHMARK.json holding the bounds")
	flag.Parse()
	if *summary != "" {
		ok, err := summarize(*summary, *specPath, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace != 0
	if flag.NArg() > 0 || cfg.seconds < 1 || cfg.divisor < 1 || cfg.docs < 1000 || (all == (cfg.workload != "")) {
		fmt.Fprintln(os.Stderr, "usage: benchmark (-workload <name> | -all) [-seed n] [-seconds n] [-trace 0|1] [-divisor n] [-docs n>=1000] [-out dir]")
		os.Exit(2)
	}
	names := []string{cfg.workload}
	if all {
		names = workloadOrder
	}
	correct := true
	for _, name := range names {
		cfg.workload = name
		ok, err := runOne(cfg, os.Stdout, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		correct = correct && ok
	}
	if !correct {
		os.Exit(1)
	}
}
