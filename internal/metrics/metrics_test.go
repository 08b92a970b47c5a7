package metrics

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFormatDurationThesisStyle(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{620 * time.Millisecond, "0.62s"},
		{15710 * time.Millisecond, "15.71s"},
		{4*time.Minute + 50*time.Second, "4m50.00s"},
		{47*time.Minute + 20*time.Second + 140*time.Millisecond, "47m20.14s"},
		{time.Hour + 53*time.Minute + 51*time.Second, "1h53m51.00s"},
		{3*time.Hour + 31*time.Minute + 53720*time.Millisecond, "3h31m53.72s"},
		{0, "0.00s"},
		{-5 * time.Second, "0.00s"},
		{500 * time.Millisecond, "0.50s"},
		{12300 * time.Microsecond, "0.0123s"},
		{410 * time.Microsecond, "0.00041s"},
		{45 * time.Microsecond, "0.000045s"},
		{999700 * time.Microsecond, "1.00s"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{2 << 10, "2.00KB"},
		{629145, "614.40KB"},
		{3 << 20, "3.00MB"},
		{12 << 30, "12.00GB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table X: demo", "Query", "Runtime")
	tab.AddRow("Query 7", "15.71s")
	tab.AddRow("Query 46", "3m18.00s")
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	out := tab.String()
	for _, want := range []string{"Table X: demo", "Query 7", "3m18.00s", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Errorf("table has %d lines", len(lines))
	}
}

func TestFigureRendering(t *testing.T) {
	f := Figure{Title: "Figure Y", YLabel: "s"}
	f.AddSeries("denormalized", []string{"Query 7", "Query 21"}, []float64{0.62, 0.17})
	f.AddSeries("normalized", []string{"Query 7", "Query 21"}, []float64{7.30, 26.84})
	out := f.String()
	for _, want := range []string{"Figure Y", "denormalized", "normalized", "Query 21", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	// Empty figure renders without panicking.
	if (&Figure{Title: "empty"}).String() == "" {
		t.Errorf("empty figure should still render its title")
	}
	// A series with more labels than values pads with zeros.
	padded := Figure{}
	padded.AddSeries("s", []string{"a", "b"}, []float64{1})
	if !strings.Contains(padded.String(), "b") {
		t.Errorf("padded series missing label")
	}
}

// TestFigureKeepsThreeSignificantDigits: a bar far below one unit reads as
// its value, not as 0.000; from one unit up a bar keeps three decimals.
func TestFigureKeepsThreeSignificantDigits(t *testing.T) {
	f := Figure{YLabel: "s"}
	f.AddSeries("sharded", []string{"Query 7", "Query 50", "Query 21"}, []float64{0.000412, 0.0123, 7.3})
	out := f.String()
	for _, want := range []string{" 0.000412 s", " 0.0123 s", " 7.300 s"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " 0.000 s") {
		t.Errorf("a small bar rendered as 0.000:\n%s", out)
	}
}

func TestTimer(t *testing.T) {
	// An injected clock makes the measured durations exact: each Measure
	// call advances the fake clock by a known amount inside fn, so the
	// assertions hold on any scheduler and any timer granularity.
	now := time.Unix(1_000_000, 0)
	var tm Timer
	tm.Clock = func() time.Time { return now }
	if tm.Best() != 0 || tm.Mean() != 0 {
		t.Fatalf("empty timer should report zero")
	}
	for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		if err := tm.Measure(func() error {
			now = now.Add(d)
			return nil
		}); err != nil {
			t.Fatal(i, err)
		}
	}
	wantErr := errors.New("boom")
	if err := tm.Measure(func() error { return wantErr }); err != wantErr {
		t.Fatalf("Measure should return the function's error")
	}
	runs := tm.Runs()
	if len(runs) != 4 {
		t.Fatalf("runs = %d", len(runs))
	}
	if runs[0] != 30*time.Millisecond || runs[3] != 0 {
		t.Fatalf("runs = %v", runs)
	}
	if tm.Best() != 0 {
		t.Fatalf("best = %v, want the zero-duration error run", tm.Best())
	}
	if tm.Mean() != 15*time.Millisecond {
		t.Fatalf("mean = %v", tm.Mean())
	}
}
