// Package reshape is the public SDK for writing resizable applications:
// iterative codes whose processor set a ReSHAPE scheduler may grow or
// shrink between iterations while they run.
//
// An application implements the App lifecycle — Init registers its
// distributed state, Iterate performs one outer iteration — and hands
// itself to Run:
//
//	type solver struct{}
//
//	func (solver) Init(rc *reshape.Context) error {
//		a := rc.RegisterArray("A", 64, 64, 4, 4)
//		rc.FillArray(a, func(i, j int) float64 { return 1 / float64(1+i+j) })
//		return nil
//	}
//
//	func (solver) Iterate(rc *reshape.Context) error {
//		a, _ := rc.Array("A")
//		return apps.DistLU(rc.Grid(), a.LayoutFor(rc.Topo()), a.Data)
//	}
//
//	rep, err := reshape.Run(ctx, solver{},
//		reshape.WithScheduler(srv), reshape.WithJobID(id),
//		reshape.WithTopology(grid.Topology{Rows: 1, Cols: 2}),
//		reshape.WithMaxIterations(10))
//
// Run owns the loop the paper calls the "simple API" usage pattern:
// iterate, log the iteration time, hit a resize point, and either continue
// on a (possibly different) processor set or retire. Everything the
// pre-SDK code hand-rolled per application — the worker closure, resize
// points, iteration accounting, spawned-rank re-entry — lives in the
// runner. Registered arrays ride the fused block-cyclic redistribution at
// every topology change; replicated buffers are re-broadcast from rank 0.
//
// A resize gives every registered array a new Data slice and returns the
// storage behind the old one to the process-wide float arena at once,
// where any job may reuse it. Read Array.Data
// (and Replicated buffers) afresh in every Iterate, as the example does; a
// slice taken before a resize point is invalid after it.
//
// An App that also implements ResizeHandler is notified after every
// topology change (and on ranks that just spawned). Typed lifecycle Events
// stream to the Logger installed with WithLogger.
//
// The scheduler connection is any implementation of the resize.Client
// capability — the in-process scheduler.Server and the rpc/v2 reshape
// client (internal/reshape) both satisfy the full resize.Scheduler
// interface, so applications are transport-agnostic.
//
// Layering: App → Run → scheduler (see DESIGN.md, "The application SDK").
// Each rank's Context is also the resizing library: it contacts the
// scheduler, spawns or retires ranks and redistributes the arrays.
//
// App implementations are shared by every rank (ranks are goroutines of
// one process), so they must be safe for concurrent method calls; keep
// rank-local state in the Context — registered arrays and
// replicated buffers — not in App struct fields.
package reshape
