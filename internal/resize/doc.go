// Package resize holds the types that ReSHAPE's resizing library (§3.2 of
// the paper, implemented by the SDK in pkg/reshape) shares with the rest of
// the system: the scheduler capability it contacts at resize points
// (Client, and the full Scheduler surface that the in-process
// scheduler.Server and the rpc/v2 client both implement), the descriptor of
// a global block-cyclic array it redistributes (Array), and two scheduler
// stubs for runs without a real scheduler (NullClient, ScriptedClient).
package resize
