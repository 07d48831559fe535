//go:build race

package simcluster_test

// raceEnabled reports that the race detector is on; its instrumentation
// allocates, so allocation budgets differ under it.
const raceEnabled = true
