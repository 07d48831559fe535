package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// ScaleRow is one cluster size of the scheduler scale experiment.
type ScaleRow struct {
	Jobs        int
	Procs       int
	WallSeconds float64
	JobsPerSec  float64
	Utilization float64
}

// SchedulerScale stresses the event-driven scheduler core well beyond the
// paper's 5-job workloads: generated mixes of thousands of jobs on a
// 1024-processor virtual cluster, reporting wall-clock throughput of the
// simulation itself. This is the experiment DESIGN.md's scalability section
// refers to; BenchmarkSchedulerThroughput covers the same path under `go
// test -bench`.
func SchedulerScale(params *perfmodel.Params, jobCounts []int) ([]ScaleRow, error) {
	const procs = 1024
	var rows []ScaleRow
	for _, jobs := range jobCounts {
		mix, err := workload.Generate(workload.GenConfig{
			Seed: 7, Jobs: jobs, MeanInterarrival: 2, MaxProcs: 64,
		})
		if err != nil {
			return nil, err
		}
		core := scheduler.NewCore(procs, true)
		core.DisableTrace()
		// The experiment reports throughput and utilization only, so the
		// per-iteration result rows are dropped like the allocation trace —
		// matching the benchmark configuration the committed scaling curve
		// (BENCH_scheduler.json) is measured under.
		start := time.Now()
		res, err := simcluster.New(procs, simcluster.Dynamic, params, mix).
			WithCore(core).WithoutIterRecords().Run()
		if err != nil {
			return nil, fmt.Errorf("scale %d jobs: %w", jobs, err)
		}
		wall := time.Since(start).Seconds()
		rows = append(rows, ScaleRow{
			Jobs:        jobs,
			Procs:       procs,
			WallSeconds: wall,
			JobsPerSec:  float64(jobs) / wall,
			Utilization: res.Utilization,
		})
	}
	return rows, nil
}

// printSchedulerScale writes the scheduler scale table. With no jobCounts
// it runs the default 1k/10k mixes; reshape-bench's -scale-jobs flag
// passes larger counts (e.g. the 1M profiling mix) through Artefacts.
func printSchedulerScale(w io.Writer, params *perfmodel.Params, jobCounts []int) error {
	if len(jobCounts) == 0 {
		jobCounts = []int{1000, 10000}
	}
	rows, err := SchedulerScale(params, jobCounts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Scheduler scale: generated mixes through the event-driven core")
	fmt.Fprintf(w, "%8s %8s %10s %10s %10s\n",
		"jobs", "procs", "wall(s)", "jobs/s", "util(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %8d %10.2f %10.0f %10.1f\n",
			r.Jobs, r.Procs, r.WallSeconds, r.JobsPerSec, 100*r.Utilization)
	}
	return nil
}
