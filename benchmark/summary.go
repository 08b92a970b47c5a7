package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"docstore/benchmark/internal/stats"
)

// benchmarkSpec is the part of BENCHMARK.json the summary and the smoke test
// read.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// summarize reads repeat.sh's log — one "<workload>\t<result line>" per run
// — and prints, per workload and end-to-end metric, the median and quartiles
// over the runs and whether the spread (q3-q1 over the median, the driver's
// measure) fits the metric's bound. It reports failure when a run was
// incorrect or printed no result, or a spread other than setup_s's exceeds
// its bound.
func summarize(logPath, specPath string, w io.Writer) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	f, err := os.Open(logPath)
	if err != nil {
		return false, err
	}
	defer f.Close()
	values := make(map[string]map[string][]float64) // workload -> metric -> one value per run
	ok := true
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		workload, line, found := strings.Cut(sc.Text(), "\t")
		if !found {
			continue
		}
		var res resultJSON
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			fmt.Fprintf(w, "%s: a run ended without a result line (%q)\n", workload, line)
			ok = false
			continue
		}
		if !res.Correct || res.Failed > 0 {
			fmt.Fprintf(w, "%s: a run was incorrect (%d of %d operations failed)\n", workload, res.Failed, res.Attempted)
			ok = false
		}
		if values[workload] == nil {
			values[workload] = make(map[string][]float64)
		}
		for name, m := range res.Metrics {
			values[workload][name] = append(values[workload][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	for _, workload := range workloadOrder {
		if values[workload] == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", workload)
		for _, m := range spec.EndToEnd {
			xs := values[workload][m.Name]
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3 := stats.Quartiles(xs)
			spread := (q3 - q1) / q2
			verdict := "fits"
			switch {
			case spread > m.Bound && m.Name == "setup_s":
				verdict = "over (setup_s spread is not judged)"
			case spread > m.Bound:
				verdict = "OVER THE BOUND"
				ok = false
			case spread > m.Bound/3:
				verdict = "fits, but over a third of the bound"
			}
			fmt.Fprintf(w, "  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  bound %.2f  n=%d  %s\n",
				m.Name, q2, q1, q3, spread, m.Bound, len(xs), verdict)
		}
	}
	return ok, nil
}
