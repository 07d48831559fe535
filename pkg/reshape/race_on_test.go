//go:build race

package reshape

// raceEnabled reports that the race detector is on; its instrumentation
// may allocate, so exact zero-allocation counts are not asserted under it.
const raceEnabled = true
