package metrics

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryCountersAndLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("docstore_wire_requests_total", "wire requests", "op", "insert")
	b := r.Counter("docstore_wire_requests_total", "wire requests", "op", "find")
	again := r.Counter("docstore_wire_requests_total", "wire requests", "op", "insert")
	if a != again {
		t.Fatalf("same name+labels returned distinct counters")
	}
	if a == b {
		t.Fatalf("distinct labels share a counter")
	}
	a.Inc()
	a.Add(2)
	a.Add(-5) // ignored: monotonic
	b.Inc()

	var buf strings.Builder
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE docstore_wire_requests_total counter",
		`docstore_wire_requests_total{op="insert"} 3`,
		`docstore_wire_requests_total{op="find"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// TYPE line appears once per family, not per series.
	if strings.Count(out, "# TYPE docstore_wire_requests_total") != 1 {
		t.Fatalf("family TYPE line duplicated:\n%s", out)
	}
}

func TestRegistryHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("docstore_wire_request_duration_seconds", "request latency", "op", "find")
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Millisecond)

	var buf strings.Builder
	r.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, "# TYPE docstore_wire_request_duration_seconds histogram") {
		t.Fatalf("missing histogram TYPE:\n%s", out)
	}
	if !strings.Contains(out, `docstore_wire_request_duration_seconds_bucket{op="find",le="+Inf"} 3`) {
		t.Fatalf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, `docstore_wire_request_duration_seconds_count{op="find"} 3`) {
		t.Fatalf("missing _count:\n%s", out)
	}
	// Cumulative bucket counts must be non-decreasing across le bounds.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "docstore_wire_request_duration_seconds_bucket") {
			continue
		}
		var n int64
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad bucket line %q", line)
		}
		for _, ch := range fields[1] {
			n = n*10 + int64(ch-'0')
		}
		if n < prev {
			t.Fatalf("cumulative buckets decreased at %q:\n%s", line, out)
		}
		prev = n
	}
	// _sum is in seconds.
	if !strings.Contains(out, "docstore_wire_request_duration_seconds_sum") {
		t.Fatalf("missing _sum:\n%s", out)
	}
}

func TestRegistryGaugeSourceMangling(t *testing.T) {
	r := NewRegistry()
	r.AddGaugeSource("docstore", func() []Gauge {
		return []Gauge{
			{Name: "engine.liveVersions", Value: 7},
			{Name: "engine.retainedBytes", Value: 1024, Unit: "bytes"},
		}
	})
	var buf strings.Builder
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE docstore_engine_live_versions gauge",
		"docstore_engine_live_versions 7",
		"docstore_engine_retained_bytes 1024",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHandlerServesMergedRegistries scrapes the merged exposition with no
// Accept header, with the headers a scraper sends when it prefers or
// declines OpenMetrics, and with a wildcard: every one gets the classic text
// format, the same bytes, and the nil registry in the list is skipped.
func TestHandlerServesMergedRegistries(t *testing.T) {
	wireReg, mongodReg := NewRegistry(), NewRegistry()
	wireReg.Counter("docstore_wire_requests_total", "", "op", "ping").Inc()
	mongodReg.Counter("docstore_mongod_ops_total", "", "op", "insert").Inc()
	mongodReg.Histogram("docstore_mongod_op_duration_seconds", "", "op", "insert").Observe(time.Millisecond)

	var want strings.Builder
	wireReg.WritePrometheus(&want)
	mongodReg.WritePrometheus(&want)

	srv := httptest.NewServer(Handler(wireReg, mongodReg, nil))
	defer srv.Close()
	for _, tc := range []struct{ name, accept string }{
		{"no Accept", ""},
		{"OpenMetrics", "application/openmetrics-text;version=1.0.0"},
		// Prometheus's own Accept header shape.
		{"OpenMetrics preferred", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5"},
		{"OpenMetrics declined", "application/openmetrics-text;q=0,text/plain"},
		{"wildcard", "*/*"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest("GET", srv.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatalf("scrape: %v", err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			out := string(body)
			if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
				t.Fatalf("content-type = %q", ct)
			}
			if !strings.Contains(out, "docstore_wire_requests_total") || !strings.Contains(out, "docstore_mongod_ops_total") {
				t.Fatalf("merged exposition incomplete:\n%s", out)
			}
			if strings.Contains(out, "# EOF") || strings.Contains(out, "# {trace_id=") {
				t.Fatalf("exposition is not the classic format:\n%s", out)
			}
			if out != want.String() {
				t.Fatalf("served exposition differs from the registries' own:\n got %q\nwant %q", out, want.String())
			}
		})
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := []string{"insert", "find", "update"}
			for i := 0; i < 500; i++ {
				op := ops[i%len(ops)]
				r.Counter("docstore_mongod_ops_total", "", "op", op).Inc()
				r.Histogram("docstore_mongod_op_duration_seconds", "", "op", op).Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					var buf strings.Builder
					r.WritePrometheus(&buf)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("docstore_mongod_ops_total", "", "op", "insert").Value(); got != 8*167 {
		t.Fatalf("insert counter = %d, want %d", got, 8*167)
	}
}

// parseExposition is a minimal spec-following parser for the round-trip
// test: it unescapes HELP text and label values and returns sample lines as
// (name, labels map, value).
type parsedSample struct {
	name   string
	labels map[string]string
	value  float64
}

func parseExposition(t *testing.T, text string) (help map[string]string, samples []parsedSample) {
	t.Helper()
	help = make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, h, _ := strings.Cut(rest, " ")
			help[name] = unescape(h, false)
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		labels := map[string]string{}
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			rest := line[i+1:]
			for {
				eq := strings.IndexByte(rest, '=')
				if eq < 0 {
					t.Fatalf("bad label section in %q", line)
				}
				key := rest[:eq]
				rest = rest[eq+2:] // skip ="
				val, n := scanQuoted(t, rest)
				labels[key] = val
				rest = rest[n:]
				if strings.HasPrefix(rest, ",") {
					rest = rest[1:]
					continue
				}
				if strings.HasPrefix(rest, "} ") {
					line = name + " " + rest[2:]
					break
				}
				t.Fatalf("bad label terminator in %q", rest)
			}
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("bad sample line %q", line)
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		samples = append(samples, parsedSample{name: name, labels: labels, value: v})
	}
	return help, samples
}

// scanQuoted reads an escaped label value up to its closing quote and
// returns the unescaped value and how many input bytes it consumed
// (closing quote included).
func scanQuoted(t *testing.T, s string) (string, int) {
	t.Helper()
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '"', '\\':
				b.WriteByte(s[i])
			default:
				t.Fatalf("unknown escape \\%c", s[i])
			}
		case '"':
			return b.String(), i + 1
		default:
			b.WriteByte(s[i])
		}
	}
	t.Fatalf("unterminated quoted value %q", s)
	return "", 0
}

func unescape(s string, isLabel bool) string {
	s = strings.ReplaceAll(s, `\n`, "\n")
	if isLabel {
		s = strings.ReplaceAll(s, `\"`, `"`)
	}
	return strings.ReplaceAll(s, `\\`, `\`)
}

func TestPrometheusEscapingRoundTrip(t *testing.T) {
	r := NewRegistry()
	nastyValue := "line1\nline2 \"quoted\" back\\slash"
	nastyHelp := "help with \\ and\nnewline"
	r.Counter("rt_total", nastyHelp, "collection", nastyValue).Add(7)
	r.Histogram("rt_seconds", nastyHelp, "op", nastyValue).Observe(time.Millisecond)
	r.AddGaugeSource("", func() []Gauge {
		return []Gauge{{Name: "rt_gauge", Value: 5, Labels: []string{"shard", nastyValue}}}
	})

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	// No raw newline may survive inside any single exposition line.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "line1") && strings.Contains(line, "line2") {
			// Good: both halves on one physical line means the newline was
			// escaped.
			continue
		}
		if strings.HasSuffix(line, "line1") {
			t.Fatalf("unescaped newline split a sample line: %q", line)
		}
	}

	help, samples := parseExposition(t, out)
	if got := help["rt_total"]; got != nastyHelp {
		t.Fatalf("HELP round-trip: got %q want %q", got, nastyHelp)
	}
	foundCounter, foundGauge, foundCount := false, false, false
	for _, s := range samples {
		switch s.name {
		case "rt_total":
			foundCounter = true
			if s.labels["collection"] != nastyValue {
				t.Fatalf("counter label round-trip: got %q", s.labels["collection"])
			}
			if s.value != 7 {
				t.Fatalf("counter value = %v", s.value)
			}
		case "rt_gauge":
			foundGauge = true
			if s.labels["shard"] != nastyValue {
				t.Fatalf("gauge label round-trip: got %q", s.labels["shard"])
			}
		case "rt_seconds_count":
			foundCount = true
			if s.labels["op"] != nastyValue {
				t.Fatalf("histogram label round-trip: got %q", s.labels["op"])
			}
			if s.value != 1 {
				t.Fatalf("histogram count = %v", s.value)
			}
		}
	}
	if !foundCounter || !foundGauge || !foundCount {
		t.Fatalf("missing samples (counter=%v gauge=%v histCount=%v):\n%s",
			foundCounter, foundGauge, foundCount, out)
	}
}

func TestRawHistogramUnscaledExposition(t *testing.T) {
	r := NewRegistry()
	h := r.RawHistogram("batch_size", "records per group commit")
	h.Observe(6) // a batch of 6 records, not 6ns
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `batch_size_bucket{le="8"} 1`) {
		t.Fatalf("raw bucket bounds scaled:\n%s", out)
	}
	if !strings.Contains(out, "batch_size_sum 6\n") {
		t.Fatalf("raw sum scaled:\n%s", out)
	}
}

// sampleFamily returns the metric family a sample line belongs to: its name
// with any histogram suffix removed.
func sampleFamily(line string) string {
	name, _, _ := strings.Cut(line, " ")
	name, _, _ = strings.Cut(name, "{")
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			return base
		}
	}
	return name
}

// TestRegistryFamilyHeadersOncePerFamily pins the exposition shape a scraper
// refuses when it breaks: each family's HELP and TYPE lines appear once,
// right before its samples, and the samples of one family form one run in
// label order, however many label sets it has and in whatever order they
// were registered.
func TestRegistryFamilyHeadersOncePerFamily(t *testing.T) {
	r := NewRegistry()
	for _, op := range []string{"update", "find", "insert"} {
		r.Counter("fam_ops_total", "ops", "op", op).Inc()
		r.Counter("fam_errors_total", "errors", "op", op)
		r.Histogram("fam_op_duration_seconds", "latency", "op", op).Observe(time.Microsecond)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")

	for _, family := range []string{"fam_errors_total", "fam_ops_total", "fam_op_duration_seconds"} {
		if n := strings.Count(out, "# HELP "+family+" "); n != 1 {
			t.Fatalf("%s has %d HELP lines, want 1:\n%s", family, n, out)
		}
		if n := strings.Count(out, "# TYPE "+family+" "); n != 1 {
			t.Fatalf("%s has %d TYPE lines, want 1:\n%s", family, n, out)
		}
		typeAt, run, total := -1, 0, 0
		for i, line := range lines {
			switch {
			case strings.HasPrefix(line, "# TYPE "+family+" "):
				typeAt = i
			case strings.HasPrefix(line, "#") || sampleFamily(line) != family:
			default:
				total++
				if typeAt >= 0 && i == typeAt+1+run {
					run++
				}
			}
		}
		if typeAt < 1 || !strings.HasPrefix(lines[typeAt-1], "# HELP "+family+" ") {
			t.Fatalf("%s: HELP does not directly precede TYPE:\n%s", family, out)
		}
		if run == 0 || run != total {
			t.Fatalf("%s: %d samples, %d of them in one run after its TYPE line:\n%s", family, total, run, out)
		}
	}
	for _, want := range []string{
		"fam_ops_total{op=\"find\"} 1\nfam_ops_total{op=\"insert\"} 1\nfam_ops_total{op=\"update\"} 1\n",
		"fam_errors_total{op=\"find\"} 0\nfam_errors_total{op=\"insert\"} 0\nfam_errors_total{op=\"update\"} 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("samples not in label order, want run\n%s\nin:\n%s", want, out)
		}
	}
}

// TestRegistryLabelOrderIsCanonical: label pairs name the same series in any
// order, and the series renders its labels sorted by key.
func TestRegistryLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("canon_total", "", "op", "find", "coll", "c")
	c2 := r.Counter("canon_total", "", "coll", "c", "op", "find")
	if c1 != c2 {
		t.Fatalf("reordered label pairs registered a second counter")
	}
	h1 := r.Histogram("canon_seconds", "", "op", "find", "coll", "c")
	h2 := r.Histogram("canon_seconds", "", "coll", "c", "op", "find")
	if h1 != h2 {
		t.Fatalf("reordered label pairs registered a second histogram")
	}
	c1.Inc()
	c2.Inc()
	h2.Observe(time.Millisecond)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`canon_total{coll="c",op="find"} 2`,
		`canon_seconds_bucket{coll="c",op="find",le="+Inf"} 1`,
		`canon_seconds_count{coll="c",op="find"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegisterHistogramSeriesReplaces pins what re-enabling durability relies
// on: attaching a histogram to a series that already has one replaces it, so
// the exposition follows the new log's histogram and carries the series
// once. The unit decides whether values export in seconds or unscaled.
func TestRegisterHistogramSeriesReplaces(t *testing.T) {
	r := NewRegistry()
	old, cur, batch := &Histogram{}, &Histogram{}, &Histogram{}
	old.Observe(time.Second)
	cur.Observe(1500 * time.Microsecond)
	cur.Observe(1500 * time.Microsecond)
	batch.Observe(6)
	r.RegisterHistogramSeries("att_fsync_seconds", "fsync latency", "seconds", old)
	r.RegisterHistogramSeries("att_fsync_seconds", "fsync latency", "seconds", cur)
	r.RegisterHistogramSeries("att_batch_size", "records per fsync", "", batch)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"att_fsync_seconds_count 2\n",
		"att_fsync_seconds_sum 0.003\n",
		"att_batch_size_sum 6\n",
		`att_batch_size_bucket{le="8"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "att_fsync_seconds_count"); n != 1 {
		t.Fatalf("re-registered series exported %d times:\n%s", n, out)
	}
}

// TestLabeledGaugesShareOneTypeLine renders the replica set's per-member
// gauges: one TYPE line per family, samples sorted by name and then labels.
func TestLabeledGaugesShareOneTypeLine(t *testing.T) {
	r := NewRegistry()
	r.AddGaugeSource("", func() []Gauge {
		return []Gauge{
			{Name: "docstore_replset_member_lag", Value: 3, Labels: []string{"member", "c", "set", "rs0"}},
			{Name: "docstore_replset_member_applied", Value: 9, Labels: []string{"member", "a", "set", "rs0"}},
			{Name: "docstore_replset_member_lag", Value: 0, Labels: []string{"set", "rs0", "member", "a"}},
			{Name: "docstore_replset_member_lag", Value: 1, Labels: []string{"member", "b", "set", "rs0"}},
		}
	})
	var b strings.Builder
	r.WritePrometheus(&b)
	want := "# TYPE docstore_replset_member_applied gauge\n" +
		`docstore_replset_member_applied{member="a",set="rs0"} 9` + "\n" +
		"# TYPE docstore_replset_member_lag gauge\n" +
		`docstore_replset_member_lag{member="a",set="rs0"} 0` + "\n" +
		`docstore_replset_member_lag{member="b",set="rs0"} 1` + "\n" +
		`docstore_replset_member_lag{member="c",set="rs0"} 3` + "\n"
	if got := b.String(); got != want {
		t.Fatalf("labeled gauges rendered\n%s\nwant\n%s", got, want)
	}
}

func TestPromNameMangling(t *testing.T) {
	for _, tc := range []struct{ prefix, name, want string }{
		{"docstore", "engine.liveVersions", "docstore_engine_live_versions"},
		{"docstore_trace", "spans-started", "docstore_trace_spans_started"},
		{"docstore_trace", "ops-in-flight", "docstore_trace_ops_in_flight"},
		{"", "docstore_replset_member_lag", "docstore_replset_member_lag"},
		{"docstore", "Uptime", "docstore_uptime"},
		{"x", "a.B-C", "x_a_b_c"},
	} {
		t.Run(tc.want, func(t *testing.T) {
			if got := promName(tc.prefix, tc.name); got != tc.want {
				t.Fatalf("promName(%q, %q) = %q, want %q", tc.prefix, tc.name, got, tc.want)
			}
		})
	}
}

// TestRegistryScrapeStress races series registration and observation against
// scrapes under -race (CI repeats it): writers resolve their labeled series by
// name on every call while scrapers render the exposition. No scrape may show
// a family's TYPE line twice, and once the writers stop the exposition must
// account for every observation.
func TestRegistryScrapeStress(t *testing.T) {
	r := NewRegistry()
	var depth atomic.Int64
	r.AddGaugeSource("stress", func() []Gauge { return []Gauge{{Name: "depth", Value: depth.Load()}} })
	const writers, perWriter, colls = 8, 600, 12

	var stop atomic.Bool
	var rg sync.WaitGroup
	for s := 0; s < 2; s++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for !stop.Load() {
				var b strings.Builder
				r.WritePrometheus(&b)
				out := b.String()
				for _, family := range []string{"stress_ops_total", "stress_op_seconds", "stress_depth"} {
					if n := strings.Count(out, "# TYPE "+family+" "); n > 1 {
						t.Errorf("scrape carries %d TYPE lines for %s", n, family)
						return
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				coll := "c" + strconv.Itoa((w+i)%colls)
				r.Counter("stress_ops_total", "ops", "coll", coll).Inc()
				r.Histogram("stress_op_seconds", "latency", "coll", coll).Observe(time.Duration(1+i%1000) * time.Microsecond)
				depth.Add(1)
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()

	var b strings.Builder
	r.WritePrometheus(&b)
	_, samples := parseExposition(t, b.String())
	var ops, observed float64
	series := map[string]bool{}
	for _, s := range samples {
		switch s.name {
		case "stress_ops_total":
			ops += s.value
			series[s.labels["coll"]] = true
		case "stress_op_seconds_count":
			observed += s.value
		case "stress_depth":
			if s.value != writers*perWriter {
				t.Fatalf("depth gauge = %v, want %d", s.value, writers*perWriter)
			}
		}
	}
	if ops != writers*perWriter || observed != writers*perWriter {
		t.Fatalf("ops counted %v, histogram counted %v, want %d each", ops, observed, writers*perWriter)
	}
	if len(series) != colls {
		t.Fatalf("counter series = %d, want %d", len(series), colls)
	}
}
