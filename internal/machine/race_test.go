//go:build race

package machine

// raceEnabled reports whether the race detector is on: its bookkeeping
// allocates, so allocation-count tests skip themselves under it.
const raceEnabled = true
