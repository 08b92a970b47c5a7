// Package metrics provides the measurement and reporting helpers used by the
// experiment framework: duration formatting in the thesis' h/m/s style,
// simple plain-text tables, and figure series rendering for the terminal.
package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// FormatDuration renders a duration the way the thesis reports runtimes:
// "1h53m51.00s", "4m50.00s", "15.71s", "0.62s". Below one second, where two
// decimals would print most reduced-scale runtimes as "0.00s", it keeps
// three significant digits: "0.0123s", "0.00041s".
func FormatDuration(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	total := d.Seconds()
	hours := int(total) / 3600
	minutes := (int(total) % 3600) / 60
	seconds := total - float64(hours*3600) - float64(minutes*60)
	switch {
	case hours > 0:
		return fmt.Sprintf("%dh%dm%05.2fs", hours, minutes, seconds)
	case minutes > 0:
		return fmt.Sprintf("%dm%05.2fs", minutes, seconds)
	case d > 0 && d < time.Second:
		decimals := 2 - int(math.Floor(math.Log10(total)))
		out := strconv.FormatFloat(total, 'f', decimals, 64)
		// Zeros past the thesis' two decimals are not significant digits.
		for ; decimals > 2 && strings.HasSuffix(out, "0"); decimals-- {
			out = out[:len(out)-1]
		}
		return out + "s"
	default:
		return fmt.Sprintf("%.2fs", seconds)
	}
}

// FormatBytes renders a byte count in the unit the thesis uses for
// selectivity (MB with two decimals) below 1 GB, and GB above.
func FormatBytes(n int64) string {
	const (
		kb = 1 << 10
		mb = 1 << 20
		gb = 1 << 30
	)
	switch {
	case n >= gb:
		return fmt.Sprintf("%.2fGB", float64(n)/float64(gb))
	case n >= mb:
		return fmt.Sprintf("%.2fMB", float64(n)/float64(mb))
	case n >= kb:
		return fmt.Sprintf("%.2fKB", float64(n)/float64(kb))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Table accumulates rows and renders them as an aligned plain-text table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are stringified with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		row[i] = fmt.Sprintf("%v", v)
	}
	t.rows = append(t.rows, row)
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named sequence of (label, value) points of a figure.
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Figure is a set of series sharing x-axis labels, rendered as aligned
// columns plus a crude bar chart so the relative shape is visible in a
// terminal, mirroring the thesis' bar charts (Figures 4.9–4.11).
type Figure struct {
	Title  string
	YLabel string
	Series []Series
}

// AddSeries appends a series to the figure.
func (f *Figure) AddSeries(name string, labels []string, values []float64) {
	f.Series = append(f.Series, Series{Name: name, Labels: labels, Values: values})
}

// String renders the figure.
func (f *Figure) String() string {
	var b strings.Builder
	if f.Title != "" {
		fmt.Fprintf(&b, "%s\n", f.Title)
	}
	maxVal := 0.0
	for _, s := range f.Series {
		for _, v := range s.Values {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	const barWidth = 40
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%s\n", s.Name)
		for i, label := range s.Labels {
			v := 0.0
			if i < len(s.Values) {
				v = s.Values[i]
			}
			bar := 0
			if maxVal > 0 {
				bar = int(v / maxVal * barWidth)
			}
			fmt.Fprintf(&b, "  %-12s %10.3f %s %s\n", label, v, f.YLabel, strings.Repeat("#", bar))
		}
	}
	return b.String()
}

// Timer measures an operation and its repeats.
type Timer struct {
	runs []time.Duration
	// Clock, when non-nil, replaces the wall clock. Tests inject one so
	// timing assertions do not depend on scheduler latency or clock
	// granularity.
	Clock func() time.Time
}

func (t *Timer) now() time.Time {
	if t.Clock != nil {
		return t.Clock()
	}
	return time.Now()
}

// Measure runs fn once and records its duration, returning fn's error.
func (t *Timer) Measure(fn func() error) error {
	start := t.now()
	err := fn()
	t.runs = append(t.runs, t.now().Sub(start))
	return err
}

// Runs returns the recorded durations.
func (t *Timer) Runs() []time.Duration { return append([]time.Duration(nil), t.runs...) }

// Best returns the fastest recorded duration (the thesis reports the best of
// five warm runs), or zero when nothing was recorded.
func (t *Timer) Best() time.Duration {
	if len(t.runs) == 0 {
		return 0
	}
	best := t.runs[0]
	for _, r := range t.runs[1:] {
		if r < best {
			best = r
		}
	}
	return best
}

// Mean returns the average recorded duration.
func (t *Timer) Mean() time.Duration {
	if len(t.runs) == 0 {
		return 0
	}
	var total time.Duration
	for _, r := range t.runs {
		total += r
	}
	return total / time.Duration(len(t.runs))
}
