//go:build !race

package nn

// raceEnabled lets allocation-count tests skip their bounds where a
// sync.Pool feeds the path: under the race detector the pool drops
// items at random, so a pooled object is reallocated now and then.
const raceEnabled = false
