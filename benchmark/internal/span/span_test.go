package span

import (
	"testing"
	"time"
)

func at(epoch time.Time, ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	epoch := time.Unix(0, 0)
	r := NewRecorder(epoch)
	// query [0,100] -> translate [10,90] -> three driver calls, two of which
	// overlap (a parallel scatter): [20,40], [30,50], [60,70].
	q := r.Start("query", 0, 7, at(epoch, 0))
	tr := r.Start("translate", q, 7, at(epoch, 10))
	for _, iv := range [][2]int{{20, 40}, {30, 50}, {60, 70}} {
		id := r.Start("driver", tr, 7, at(epoch, iv[0]))
		r.End(id, at(epoch, iv[1]))
	}
	r.End(tr, at(epoch, 90))
	r.End(q, at(epoch, 100))

	spans := r.Spans()
	if err := Check(spans); err != nil {
		t.Fatal(err)
	}
	self := SelfTimes(spans)
	ms := time.Millisecond
	if self["query"] != 20*ms {
		t.Errorf("query self = %v, want 20ms (100 minus the 80 translate covers)", self["query"])
	}
	if self["translate"] != 40*ms {
		t.Errorf("translate self = %v, want 40ms (80 minus the union [20,50]+[60,70])", self["translate"])
	}
	if self["driver"] != 50*ms {
		t.Errorf("driver self = %v, want 50ms (leaves keep their whole duration)", self["driver"])
	}
	dur, count := Totals(spans)
	if dur["driver"] != 50*ms || count["driver"] != 3 {
		t.Errorf("Totals(driver) = %v over %d spans, want 50ms over 3", dur["driver"], count["driver"])
	}
}

func TestCheckRejectsChildOutsideParent(t *testing.T) {
	epoch := time.Unix(0, 0)
	r := NewRecorder(epoch)
	p := r.Start("op", 0, 1, at(epoch, 0))
	c := r.Start("call", p, 1, at(epoch, 5))
	r.End(p, at(epoch, 10))
	r.End(c, at(epoch, 12))
	if err := Check(r.Spans()); err == nil {
		t.Fatal("a child ending after its parent must be rejected")
	}
	open := NewRecorder(epoch)
	open.Start("op", 0, 1, at(epoch, 0))
	if err := Check(open.Spans()); err == nil {
		t.Fatal("an unclosed span must be rejected")
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Start("op", 0, 1, time.Now())
	r.End(id, time.Now())
	if id != 0 || r.Spans() != nil {
		t.Fatalf("nil recorder returned id %d and spans %v", id, r.Spans())
	}
}
