// Package span records the benchmark's own trace: one span at every boundary
// the benchmark owns (load generator -> wire client, query -> translate ->
// driver.Store decorator). Spans stay in memory and are written out when the
// run ends. The spans inside the program (internal/trace) are not read here.
package span

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Start and End are offsets from the recorder's
// epoch. Parent is the ID of the span that caused this one, 0 for a root;
// Req is shared by every span of one request (or one query-set pass).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder collects spans. A nil *Recorder records nothing, so untraced runs
// execute the same code with tracing off.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder returns a recorder whose offsets count from epoch.
func NewRecorder(epoch time.Time) *Recorder { return &Recorder{epoch: epoch} }

// Start opens a span beginning at the given instant and returns its ID. The
// instant is passed in because an open-loop request's span starts when the
// request was due, not when the generator got round to it.
func (r *Recorder) Start(name string, parent int, req int64, at time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: at.Sub(r.epoch), End: -1})
	return id
}

// End closes span id at the given instant.
func (r *Recorder) End(id int, at time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = at.Sub(r.epoch)
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes sums, per span name, each span's duration minus the part of it
// its child spans cover. Children may overlap one another (a parallel
// scatter), so the covered part is the union of the child intervals, clipped
// to the parent.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent the union of kids overlaps.
func covered(parent Span, kids []Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	reach := parent.Start
	for _, k := range kids {
		start, end := k.Start, k.End
		if start < reach {
			start = reach
		}
		if end > parent.End {
			end = parent.End
		}
		if end > start {
			total += end - start
			reach = end
		}
	}
	return total
}

// Totals sums the duration and counts the spans of each name.
func Totals(spans []Span) (dur map[string]time.Duration, count map[string]int) {
	dur, count = make(map[string]time.Duration), make(map[string]int)
	for _, s := range spans {
		dur[s.Name] += s.End - s.Start
		count[s.Name]++
	}
	return dur, count
}

// Check verifies the trace is well formed: every span is closed, names its
// parent before itself, shares its request ID, and lies within it.
func Check(spans []Span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) was never closed", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) names parent %d, which does not precede it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if p.Req != s.Req {
			return fmt.Errorf("span %d (%s) belongs to request %d but its parent to %d", s.ID, s.Name, s.Req, p.Req)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%v, %v] exceeds its parent %d (%s) [%v, %v]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// WriteJSON writes the spans as one JSON array, creating the directory.
func WriteJSON(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
