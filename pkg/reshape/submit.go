package reshape

import (
	"context"

	"repro/internal/resize"
	"repro/internal/scheduler"
)

// SubmitOption tweaks a job spec on its way to the scheduler.
type SubmitOption func(*scheduler.JobSpec)

// WithPriority sets the job's scheduler priority. Higher-priority jobs are
// placed ahead in the wait queue (FCFS among equals) and are favoured by
// cluster-wide arbitration; under the benefit-ranked arbiter waiting jobs
// age upward, so a low priority delays a job but cannot starve it. The
// default 0 reproduces plain FCFS.
func WithPriority(p int) SubmitOption {
	return func(s *scheduler.JobSpec) { s.Priority = p }
}

// Submit enqueues a job on any scheduler transport — the in-process
// scheduler.Server or the rpc/v2 client — and returns the job id to hand
// to Run via WithJobID. The priority travels inside the JobSpec over the
// wire unchanged.
func Submit(ctx context.Context, s resize.Scheduler, spec scheduler.JobSpec, opts ...SubmitOption) (int, error) {
	for _, o := range opts {
		o(&spec)
	}
	return s.Submit(ctx, spec)
}
