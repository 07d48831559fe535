package resize

import (
	"context"

	"repro/internal/blockcyclic"
	"repro/internal/grid"
	"repro/internal/scheduler"
)

// Client is the scheduler interface the resizing library talks to. The
// in-process scheduler.Server implements it directly; the reshape package
// (rpc/v2) implements it over TCP. Every call takes a
// context so remote transports can honour deadlines and cancellation.
// Contact calls from concurrently resizing jobs are safe because the
// Server serializes them onto the scheduler core (see DESIGN.md, Remap
// Scheduler); an expansion grant either succeeds atomically or comes back
// as "no change".
type Client interface {
	// Contact reports an iteration from a resize point and returns the
	// remap decision (the paper's contact_scheduler).
	Contact(ctx context.Context, jobID int, topo grid.Topology, iterTime, redistTime float64) (scheduler.Decision, error)
	// ResizeComplete confirms a finished resize and reports its cost.
	ResizeComplete(ctx context.Context, jobID int, redistTime float64) error
	// JobEnd signals normal completion (the application monitor's job-end).
	JobEnd(ctx context.Context, jobID int) error
}

// Scheduler is the full capability surface of a ReSHAPE scheduler: the
// resizing-library Client plus submission, completion waits, streaming
// job-event watches and typed status snapshots. The in-process
// scheduler.Server and the rpc/v2 reshape.Client both implement it, so
// tools and applications are transport-agnostic — including Wait and
// Watch.
type Scheduler interface {
	Client
	// Submit enqueues a job and returns its id.
	Submit(ctx context.Context, spec scheduler.JobSpec) (int, error)
	// JobError reports an application failure (the application monitor's
	// job-error signal): the job is deleted, its resources recovered, and
	// the trace records kind "error" instead of "end".
	JobError(ctx context.Context, jobID int) error
	// Wait blocks until the job finishes or ctx is done.
	Wait(ctx context.Context, jobID int) error
	// Watch streams job-state transitions (scheduler.AllJobs for every
	// job) until ctx is done or the subscription is cancelled.
	Watch(ctx context.Context, jobID int) (*scheduler.Subscription, error)
	// Status returns a typed scheduler snapshot.
	Status(ctx context.Context) (scheduler.ClusterStatus, error)
}

// The in-process server satisfies the full capability interface.
var _ Scheduler = (*scheduler.Server)(nil)

// Array is one global block-cyclic array registered for redistribution.
// Data holds the calling rank's local piece under the rank's current
// topology (nil on ranks outside the grid).
//
// A resize replaces Data with a different slice taken from the mpi float
// arena, and the storage behind the old one goes back to the arena at once,
// where it may come to hold any rank's data. Fetch Data after every resize
// point; a slice taken before one is invalid after it. Data itself is never
// recycled at job end.
type Array struct {
	Name   string
	M, N   int
	MB, NB int
	Data   []float64
}

// LayoutFor returns the array's layout on a given processor topology.
func (a *Array) LayoutFor(topo grid.Topology) blockcyclic.Layout {
	return blockcyclic.Layout{M: a.M, N: a.N, MB: a.MB, NB: a.NB, Grid: topo}
}
