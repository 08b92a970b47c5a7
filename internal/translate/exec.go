package translate

import "fmt"

// Call is one step of a plan: Do makes a store call, or none, with the client
// work around it. After lists the earlier calls, by their place in the list,
// whose results Do reads or whose writes it must follow. Calls that may run
// together share nothing one of them writes, and that includes the documents
// handed to Insert or InsertMany, which give each document that lacks an _id
// one, in place: such documents are read by the call that writes them, before
// the write, or by a call after it.
type Call struct {
	After []int
	Do    func() error
}

// Exec runs calls as a dataflow: each starts once every call in its After has
// returned, and never starts if one of those failed or never started. It
// returns once every call it started has returned, with the error of the
// first failed call in list order, and hops, the longest chain of calls
// through After: the critical path, counted in calls.
func Exec(calls []Call) (hops int, err error) {
	depth := make([]int, len(calls))
	for i, c := range calls {
		for _, j := range c.After {
			if j < 0 || j >= i {
				panic(fmt.Sprintf("translate: call %d waits for call %d, not an earlier one", i, j))
			}
			depth[i] = max(depth[i], depth[j])
		}
		depth[i]++
		hops = max(hops, depth[i])
	}

	// A call that does not start takes the error of the call it waited for,
	// an earlier one, so the first error in list order is one a call returned.
	errs := make([]error, len(calls))
	done := make([]chan struct{}, len(calls))
	for i, c := range calls {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			for _, j := range c.After {
				if <-done[j]; errs[j] != nil {
					errs[i] = errs[j]
					return
				}
			}
			errs[i] = c.Do()
		}()
	}
	for i := range calls {
		if <-done[i]; err == nil {
			err = errs[i]
		}
	}
	return hops, err
}
