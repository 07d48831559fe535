package apps

import (
	"context"
	"fmt"

	"repro/internal/grid"
	"repro/internal/resize"
	"repro/internal/scheduler"
	"repro/pkg/reshape"
)

// SpecConfig is the configuration a scheduler job's spec launches: its
// application, problem size, block size (2 when the spec gives none) and
// iteration count.
func SpecConfig(spec scheduler.JobSpec) Config {
	cfg := Config{App: spec.App, N: spec.ProblemSize, NB: spec.BlockSize, Iterations: spec.Iterations}
	if cfg.NB <= 0 {
		cfg.NB = 2
	}
	return cfg
}

// Launch runs one application job on a fresh set of ranks (its own world),
// wired to the given scheduler client — the body of the paper's Job
// Startup component. The job executes through the public SDK
// (reshape.Run), so the scheduler drives its resize points; extra options
// (loggers, resize-point spacing, call timeouts) pass through. Launch
// blocks until the job finishes, including any ranks spawned by
// expansions, and returns the joined error of all ranks.
func Launch(client resize.Client, jobID int, topo grid.Topology, cfg Config, opts ...reshape.Option) error {
	app, err := Build(cfg)
	if err != nil {
		return err
	}
	runOpts := append([]reshape.Option{
		reshape.WithScheduler(client),
		reshape.WithJobID(jobID),
		reshape.WithTopology(topo),
		reshape.WithMaxIterations(cfg.Iterations),
	}, opts...)
	if _, err := reshape.Run(context.Background(), app, runOpts...); err != nil {
		return fmt.Errorf("apps: job %d (%s): %w", jobID, cfg.App, err)
	}
	return nil
}
