package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Gauge is a named point-in-time measurement: unlike a Timer, which records
// how long something took, a gauge records how much of something exists
// right now (live MVCC versions, pinned snapshots, pages). The
// storage engine's memory-economics gauges render through GaugeSet in
// serverStatus-style reports and the /metrics exposition.
type Gauge struct {
	Name  string
	Value int64
	// Unit selects the rendering: "" (plain count), "bytes"
	// (FormatBytes), or "ns" (a duration in nanoseconds, FormatDuration).
	Unit string
	// Labels are optional label pairs ("member", "rs0-sec1", ...): gauges
	// sharing a Name but differing in Labels render as one Prometheus
	// family with per-label-set samples (replication lag per member).
	Labels []string
}

// Format renders the gauge value in its unit.
func (g Gauge) Format() string {
	switch g.Unit {
	case "bytes":
		return FormatBytes(g.Value)
	case "ns":
		return FormatDuration(time.Duration(g.Value))
	default:
		return fmt.Sprintf("%d", g.Value)
	}
}

// String renders "name=value".
func (g Gauge) String() string { return g.Name + "=" + g.Format() }

// GaugeSet is a concurrency-safe collection of named gauges. Set replaces a
// gauge's current value; Add accumulates into it. Snapshots render sorted by
// name so reports are deterministic.
type GaugeSet struct {
	mu     sync.Mutex
	gauges map[string]Gauge
}

// NewGaugeSet creates an empty gauge set.
func NewGaugeSet() *GaugeSet {
	return &GaugeSet{gauges: make(map[string]Gauge)}
}

// Set replaces the named gauge's value (creating it with the unit on first
// use).
func (s *GaugeSet) Set(name string, value int64, unit string) {
	s.mu.Lock()
	s.gauges[name] = Gauge{Name: name, Value: value, Unit: unit}
	s.mu.Unlock()
}

// Add accumulates into the named gauge (creating it with the unit on first
// use).
func (s *GaugeSet) Add(name string, delta int64, unit string) {
	s.mu.Lock()
	g, ok := s.gauges[name]
	if !ok {
		g = Gauge{Name: name, Unit: unit}
	}
	g.Value += delta
	s.gauges[name] = g
	s.mu.Unlock()
}

// Get returns the named gauge and whether it exists.
func (s *GaugeSet) Get(name string) (Gauge, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	return g, ok
}

// Snapshot returns the gauges sorted by name.
func (s *GaugeSet) Snapshot() []Gauge {
	s.mu.Lock()
	out := make([]Gauge, 0, len(s.gauges))
	for _, g := range s.gauges {
		out = append(out, g)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the set as "name=value name=value ...".
func (s *GaugeSet) String() string {
	parts := make([]string, 0, 8)
	for _, g := range s.Snapshot() {
		parts = append(parts, g.String())
	}
	return strings.Join(parts, " ")
}
