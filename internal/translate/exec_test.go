package translate

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestExecSkipsCallsAfterAFailure: a call after a failed one never starts,
// nor does a call after that one, while a call that waits for neither runs;
// the error is the failed call's.
func TestExecSkipsCallsAfterAFailure(t *testing.T) {
	failure := errors.New("injected failure")
	var started [4]atomic.Bool
	call := func(i int, err error, after ...int) Call {
		return Call{After: after, Do: func() error {
			started[i].Store(true)
			return err
		}}
	}
	_, err := Exec([]Call{
		call(0, failure),
		call(1, nil, 0),
		call(2, nil, 1),
		call(3, nil),
	})
	if err != failure {
		t.Fatalf("Exec = %v, want the injected failure", err)
	}
	for i, want := range []bool{true, false, false, true} {
		if started[i].Load() != want {
			t.Errorf("call %d started = %v, want %v", i, started[i].Load(), want)
		}
	}
}

// TestExecReturnsFirstErrorInListOrder: two independent calls fail, the
// second one first; the error is the first's in list order. A call after the
// second fails in turn and takes no part.
func TestExecReturnsFirstErrorInListOrder(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	secondFailed := make(chan struct{})
	_, err := Exec([]Call{
		{Do: func() error {
			waitFor(secondFailed, meetLimit)
			return first
		}},
		{Do: func() error {
			close(secondFailed)
			return second
		}},
		{After: []int{1}, Do: func() error { return nil }},
	})
	if err != first {
		t.Fatalf("Exec = %v, want the first call's error", err)
	}
}

// TestExecReturnsAfterHeldCall: one call fails beside a held one, which is
// held until Exec returns or the bound runs out: Exec returns only after the
// held call has, so no call outlives it.
func TestExecReturnsAfterHeldCall(t *testing.T) {
	failure := errors.New("injected failure")
	execReturned := make(chan struct{})
	var held atomic.Bool
	_, err := Exec([]Call{
		{Do: func() error { return failure }},
		{Do: func() error {
			waitFor(execReturned, holdLimit)
			held.Store(true)
			return nil
		}},
	})
	returnedAfterHeld := held.Load()
	close(execReturned)
	if err != failure {
		t.Fatalf("Exec = %v, want the injected failure", err)
	}
	if !returnedAfterHeld {
		t.Fatal("Exec returned with a call still in flight")
	}
}

// TestExecRunsIndependentCallsTogether: two calls that wait for nothing are
// in flight at once. Each is held until the other has started, so an Exec
// that ran them one after another would hold the first until the bound ran
// out, and fail.
func TestExecRunsIndependentCallsTogether(t *testing.T) {
	met := newRendezvous(2)
	meet := func() error {
		if !met.arrive() {
			return errors.New("the other call did not start")
		}
		return nil
	}
	if _, err := Exec([]Call{{Do: meet}, {Do: meet}}); err != nil {
		t.Fatal(err)
	}
}

// TestExecHopsAreLongestChain: hops is the longest chain through After,
// whichever calls run beside it.
func TestExecHopsAreLongestChain(t *testing.T) {
	nop := func() error { return nil }
	for _, c := range []struct {
		name  string
		after [][]int
		hops  int
	}{
		{"none", nil, 0},
		{"one", [][]int{nil}, 1},
		{"independent", [][]int{nil, nil, nil}, 1},
		{"chain", [][]int{nil, {0}, {1}}, 3},
		{"diamond", [][]int{nil, {0}, {0}, {1, 2}}, 3},
		{"long and short branch", [][]int{nil, {0}, {1}, {2}, {0}, {3, 4}}, 5},
		{"two roots", [][]int{nil, nil, {0}, {1}, {2}, {3}}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			calls := make([]Call, len(c.after))
			for i, after := range c.after {
				calls[i] = Call{After: after, Do: nop}
			}
			hops, err := Exec(calls)
			if err != nil || hops != c.hops {
				t.Fatalf("Exec = %d hops, %v; want %d", hops, err, c.hops)
			}
		})
	}
}

// TestExecRefusesLaterDependency: a call that waits for itself or a later
// call would never start; Exec refuses the list before starting any call.
func TestExecRefusesLaterDependency(t *testing.T) {
	for _, after := range []int{1, 2, -1} {
		var started atomic.Bool
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("call 1 after %d: Exec did not panic", after)
				}
			}()
			Exec([]Call{
				{Do: func() error { started.Store(true); return nil }},
				{After: []int{after}, Do: func() error { return nil }},
			})
		}()
		if started.Load() {
			t.Errorf("call 1 after %d: a call started", after)
		}
	}
}
