package reshape

import (
	"time"

	"repro/internal/grid"
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
// resize.NullClient and never resizes (static execution); Run refuses a
// nil client.
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
