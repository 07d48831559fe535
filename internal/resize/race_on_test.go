//go:build race

package resize

// raceEnabled reports that the race detector is on; its instrumentation
// may allocate, so exact zero-allocation counts are not asserted under it.
const raceEnabled = true
