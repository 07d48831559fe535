package simcluster_test

import (
	"runtime"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/scheduler/arbiter"
	"repro/internal/scheduler/fairshare"
	"repro/internal/scheduler/rebalance"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// TestRunAllocsPerJob pins the heap allocations Run makes per job on small
// versions of the benchmark's three simulator mixes: the published FCFS
// path on the scaling-curve mix, and the backlogged three-tenant mix under
// fair share and under the rebalancer. A job's record (the Job and its
// profile) and its iteration-time reservation are carved from the core's
// chunks; what a job still costs is a list of visits past two and its
// redistribution costs, and what the arbiters add is their plans and
// directives. A budget that breaks means something on the per-job path
// allocates again. The budgets hold under -race too, where the counts rise
// (the rebalancer mix from 0.46 to 0.77 allocs/job).
func TestRunAllocsPerJob(t *testing.T) {
	params := perfmodel.SystemX()
	tenants := func(n, iters int) workload.GenConfig {
		return workload.GenConfig{
			Seed: 1, MaxProcs: 64, PriorityLevels: 3, Iterations: iters,
			Tenants: []workload.TenantSpec{
				{Name: "bursty", Jobs: n * 6 / 10, MeanInterarrival: 0.5,
					Pattern: workload.Bursty, Burst: 10, BurstFactor: 100},
				{Name: "steady", Jobs: n * 2 / 10, MeanInterarrival: 1.5},
				{Name: "diurnal", Jobs: n * 2 / 10, MeanInterarrival: 1.5,
					Pattern: workload.Diurnal, Period: 3600},
			},
		}
	}
	inner := func(mix []simcluster.JobInput) *arbiter.BenefitRanked {
		return &arbiter.BenefitRanked{Predict: simcluster.Predictor(params, mix)}
	}
	for _, tc := range []struct {
		name   string
		gen    workload.GenConfig
		budget float64
		setup  func(sim *simcluster.Sim, mix []simcluster.JobInput)
	}{
		{"fcfs", workload.GenConfig{Seed: 1, Jobs: 5000, MeanInterarrival: 2, MaxProcs: 64}, 1, nil},
		{"fairshare", tenants(2000, 10), 2, func(sim *simcluster.Sim, mix []simcluster.JobInput) {
			fs := fairshare.New(nil)
			fs.Inner = inner(mix)
			sim.WithArbiter(fs)
		}},
		{"rebalance", tenants(6000, 4), 0.9, func(sim *simcluster.Sim, mix []simcluster.JobInput) {
			reb := rebalance.New(inner(mix))
			reb.Predict = simcluster.Predictor(params, mix)
			reb.RedistCost = simcluster.RedistPredictor(params, mix)
			sim.WithArbiter(reb).WithRebalance(60)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mix, err := workload.Generate(tc.gen)
			if err != nil {
				t.Fatal(err)
			}
			core := scheduler.NewCore(1024, true)
			core.DisableTrace()
			sim := simcluster.New(1024, simcluster.Dynamic, params, mix).WithCore(core).WithoutIterRecords()
			if tc.setup != nil {
				tc.setup(sim, mix)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := sim.Run()
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != len(mix) {
				t.Fatalf("%d of %d jobs finished", len(res.Jobs), len(mix))
			}
			perJob := float64(m1.Mallocs-m0.Mallocs) / float64(len(mix))
			t.Logf("%.2f allocs/job over %d jobs", perJob, len(mix))
			if perJob > tc.budget {
				t.Errorf("Run allocates %.2f times per job, budget %.1f", perJob, tc.budget)
			}
		})
	}
}
