package reshape

import (
	"time"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/resize"
)

// config collects the functional options of one Run.
type config struct {
	client      resize.Client
	jobID       int
	topo        grid.Topology
	maxIter     int
	resizeEvery int
	logger      Logger
	perf        *perfmodel.Params
	world       *mpi.World
	callTimeout time.Duration
	states      []Redistributable

	now func() time.Time // test hook for deterministic iteration timing
}

func defaultConfig() *config {
	return &config{
		client:      resize.NullClient{},
		topo:        grid.Topology{Rows: 1, Cols: 1},
		maxIter:     10, // the paper's per-job iteration count
		resizeEvery: 1,
		now:         time.Now,
	}
}

// Option configures Run.
type Option func(*config)

// WithScheduler connects the run to a scheduler through the resize.Client
// capability. The in-process scheduler.Server and the rpc/v2 client
// (internal/reshape) both implement the full resize.Scheduler interface
// and are interchangeable here. Without this option the run uses
// resize.NullClient and never resizes (static execution).
func WithScheduler(c resize.Client) Option { return func(o *config) { o.client = c } }

// WithJobID sets the scheduler job id reported from resize points.
func WithJobID(id int) Option { return func(o *config) { o.jobID = id } }

// WithTopology sets the initial processor topology (default 1×1).
func WithTopology(t grid.Topology) Option { return func(o *config) { o.topo = t } }

// WithMaxIterations sets the number of outer iterations (default 10, the
// paper's per-job count).
func WithMaxIterations(n int) Option { return func(o *config) { o.maxIter = n } }

// WithResizeEvery places a resize point only every n-th iteration
// (default 1: every iteration, the paper's behavior). Intermediate
// iterations still log their times; they just skip the scheduler contact.
func WithResizeEvery(n int) Option { return func(o *config) { o.resizeEvery = n } }

// WithLogger streams typed lifecycle events to l. Most events are emitted
// by rank 0; EventRetire by each retiring rank, so l must tolerate
// concurrent calls.
func WithLogger(l Logger) Option { return func(o *config) { o.logger = l } }

// WithPerfModel refits p's redistribution-cost coefficients from the
// redistributions this run measures (Report.CalibratedObs says how many
// observations the fit used).
func WithPerfModel(p *perfmodel.Params) Option { return func(o *config) { o.perf = p } }

// WithWorld runs the application's ranks inside an existing mpi.World
// instead of a fresh one. Note that World.Run blocks until every rank in
// the world has finished — share a world only between runs meant to be
// joined.
func WithWorld(w *mpi.World) Option { return func(o *config) { o.world = w } }

// WithCallTimeout bounds each scheduler call made from resize points
// (0 = no deadline). Spawned ranks inherit it.
func WithCallTimeout(d time.Duration) Option { return func(o *config) { o.callTimeout = d } }

// WithState declaratively registers custom resizable state, equivalent to
// calling Context.RegisterState for each value at the end of Init.
func WithState(states ...Redistributable) Option {
	return func(o *config) { o.states = append(o.states, states...) }
}
