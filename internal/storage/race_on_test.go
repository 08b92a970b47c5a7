//go:build race

package storage

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put back, so a count of allocations that relies on a pooled buffer is not
// the production build's.
const raceEnabled = true
