//go:build !race

package rpc_test

// Watch fan-out stress scale: ~50k concurrent v2 subscriptions spread
// over 100 multiplexed connections (plus one wedged connection). The
// race-instrumented build scales down 100x (see fanout_scale_race_test.go)
// — the race runtime caps goroutines at 8k and slows every channel op.
const (
	fanoutConns       = 100
	fanoutSubsPerConn = 500
)

// raceEnabled reports whether the race detector is on: sync.Pool then
// drops items, so allocation budgets are only asserted without it.
const raceEnabled = false
