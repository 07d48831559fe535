//go:build race

package resize

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what it is given, so allocation budgets cannot be asserted.
const raceEnabled = true
