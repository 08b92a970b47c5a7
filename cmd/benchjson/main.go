// Command benchjson converts `go test -bench` text output into a JSON
// summary (ns/op, B/op, allocs/op and custom metrics per benchmark) and
// optionally compares it against a previous summary, warning on large
// allocation (B/op) and time (ns/op) regressions. It is the CI
// perf-regression gate:
//
//	go test -run='^$' -bench=. -benchmem -benchtime=1x -count=1 . | \
//	    benchjson -out bench-summary.json -baseline BENCH_PR10.json
//
// The comparison is fail-soft by default: regressions print warnings but
// exit 0 so a noisy runner cannot block a PR; -strict turns warnings into a
// non-zero exit. Benchmark names are normalized by stripping the trailing
// -GOMAXPROCS suffix so summaries compare across machines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Bench is the measured profile of one benchmark.
type Bench struct {
	NsPerOp     float64            `json:"ns_op,omitempty"`
	BytesPerOp  float64            `json:"b_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Summary is the whole JSON document.
type Summary struct {
	Benchmarks map[string]Bench `json:"benchmarks"`
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` output. Lines that are not benchmark
// results (headers, PASS, ok) are ignored.
func parseBench(r io.Reader) (*Summary, error) {
	sum := &Summary{Benchmarks: make(map[string]Bench)}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		b := Bench{}
		// fields[1] is the iteration count; the rest are (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			value, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = value
			case "B/op":
				b.BytesPerOp = value
			case "allocs/op":
				b.AllocsPerOp = value
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = value
			}
		}
		sum.Benchmarks[name] = b
	}
	return sum, scanner.Err()
}

// tailMetrics are the histogram-backed latency percentiles emitted by
// cmd/bench (the write-concern sweep and the update-stream mode), compared
// when -p99-threshold is set. p50 catches a shifted body that tail noise
// would mask; p999 catches tail collapse the median would mask.
var tailMetrics = []string{"p50-ns/op", "p99-ns/op", "p999-ns/op"}

// compare warns about benchmarks whose B/op or ns/op grew beyond threshold
// times the baseline — and, when p99Threshold > 0, whose latency-percentile
// tail metrics (emitted by cmd/bench) did the same — and returns the
// number of regressions. B/op is the stable signal (allocation profiles
// barely jitter); ns/op and the latency percentiles are noisier — especially
// at -benchtime=1x — which is why the comparison is fail-soft by default.
func compare(w io.Writer, baseline, current *Summary, threshold, p99Threshold float64) int {
	names := make([]string, 0, len(current.Benchmarks))
	for name := range current.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		cur := current.Benchmarks[name]
		base, ok := baseline.Benchmarks[name]
		if !ok {
			continue
		}
		if base.BytesPerOp > 0 {
			if ratio := cur.BytesPerOp / base.BytesPerOp; ratio > threshold {
				regressions++
				fmt.Fprintf(w, "WARN: %s B/op regressed %.2fx (%.0f -> %.0f)\n",
					name, ratio, base.BytesPerOp, cur.BytesPerOp)
			}
		}
		if base.NsPerOp > 0 {
			if ratio := cur.NsPerOp / base.NsPerOp; ratio > threshold {
				regressions++
				fmt.Fprintf(w, "WARN: %s ns/op regressed %.2fx (%.0f -> %.0f)\n",
					name, ratio, base.NsPerOp, cur.NsPerOp)
			}
		}
		if p99Threshold > 0 {
			for _, metric := range tailMetrics {
				baseTail := base.Metrics[metric]
				if baseTail <= 0 {
					continue
				}
				if ratio := cur.Metrics[metric] / baseTail; ratio > p99Threshold {
					regressions++
					fmt.Fprintf(w, "WARN: %s %s regressed %.2fx (%.0f -> %.0f)\n",
						name, metric, ratio, baseTail, cur.Metrics[metric])
				}
			}
		}
	}
	return regressions
}

func run() error {
	in := flag.String("in", "-", "bench output to read (- for stdin)")
	out := flag.String("out", "", "JSON summary to write")
	baselinePath := flag.String("baseline", "", "previous JSON summary to compare against")
	threshold := flag.Float64("threshold", 2.0, "warn when B/op or ns/op exceeds threshold x baseline")
	p99Threshold := flag.Float64("p99-threshold", 0, "also warn when a latency percentile metric (p50/p99/p999-ns/op) exceeds this x baseline (0 = off)")
	strict := flag.Bool("strict", false, "exit non-zero on regressions instead of warning")
	flag.Parse()

	var reader io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		reader = f
	}
	sum, err := parseBench(reader)
	if err != nil {
		return err
	}
	if len(sum.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark results found in input")
	}
	if *out != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d benchmarks to %s\n", len(sum.Benchmarks), *out)
	}
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			return fmt.Errorf("reading baseline: %w", err)
		}
		baseline := &Summary{}
		if err := json.Unmarshal(data, baseline); err != nil {
			return fmt.Errorf("parsing baseline: %w", err)
		}
		if n := compare(os.Stdout, baseline, sum, *threshold, *p99Threshold); n > 0 {
			fmt.Printf("%d B/op or ns/op regression(s) above %.1fx against %s\n", n, *threshold, *baselinePath)
			if *strict {
				return fmt.Errorf("benchmark regressions in strict mode")
			}
		} else {
			fmt.Printf("no B/op or ns/op regressions above %.1fx against %s\n", *threshold, *baselinePath)
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
