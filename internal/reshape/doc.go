// Package reshape is the typed client for the scheduler's rpc/v2 wire
// protocol: persistent multiplexed connections, pipelined concurrent
// requests, context deadlines/cancellation on every call, and lossless
// Watch streams, each on a connection of its own, with automatic
// reconnect-and-resubscribe.
//
// The Client implements resize.Scheduler (and therefore resize.Client), so
// applications, tools and tests swap freely between an in-process
// scheduler.Server and this client — in particular it plugs straight into
// the application SDK's reshape.WithScheduler option (pkg/reshape),
// letting an App resize against a remote reshaped daemon exactly as it
// would in process.
//
// Not to be confused with pkg/reshape, the public application SDK: this
// package is the wire transport; the SDK is the programming model.
package reshape
