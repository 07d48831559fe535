//go:build race

package rpc_test

// Scaled-down fan-out stress for the race-instrumented CI lane: same
// topology (many multiplexed subscriptions per connection, one wedged
// connection), 100x fewer subscribers.
const (
	fanoutConns       = 10
	fanoutSubsPerConn = 50
)

// raceEnabled reports whether the race detector is on: sync.Pool then
// drops items, so allocation budgets are only asserted without it.
const raceEnabled = true
