package simcluster_test

import (
	"runtime"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/scheduler/modes"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// TestRunAllocsPerJob pins the heap allocations Run makes per job on small
// versions of the benchmark's three simulator mixes: the published FCFS
// path on the scaling-curve mix, and the backlogged three-tenant mix under
// fair share and under the rebalancer, whose runs keep the allocation trace
// as the benchmark's do. A job's record (the Job and its profile), its
// iteration-time reservation and the room its visits and redistribution
// pairs grow into are carved from the core's chunks; what is left is the
// trace and what the arbiters add, their plans and directives. A budget that
// breaks means something on the per-job path allocates again. The race
// detector's instrumentation allocates too, so -race runs have budgets of
// their own.
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
	// Measured: 0.108, 0.493 and 0.240 allocs/job (0.109, 0.622 and 0.535
	// under -race); each budget is about 15 % over.
	for _, tc := range []struct {
		name               string
		gen                workload.GenConfig
		budget, raceBudget float64
		tick               float64
	}{
		{"fcfs", workload.GenConfig{Seed: 1, Jobs: 5000, MeanInterarrival: 2, MaxProcs: 64}, 0.125, 0.125, 0},
		{"fairshare", tenants(2000, 10), 0.57, 0.72, 0},
		{"rebalance", tenants(6000, 4), 0.28, 0.62, 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mix, err := workload.Generate(tc.gen)
			if err != nil {
				t.Fatal(err)
			}
			// As in the benchmark, the million-job configuration drops the
			// allocation trace and the arbiter mixes keep it.
			core := scheduler.NewCore(1024, true)
			if tc.name == "fcfs" {
				core.DisableTrace()
			}
			sim := simcluster.New(1024, simcluster.Dynamic, params, mix).WithCore(core).WithoutIterRecords().
				WithArbiter(build(t, tc.name, modes.Inputs{
					Predict: simcluster.Predictor(params, mix), RedistCost: simcluster.RedistPredictor(params, mix),
				})).WithRebalance(tc.tick)
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
			t.Logf("%.4f allocs/job over %d jobs", perJob, len(mix))
			budget := tc.budget
			if raceEnabled {
				budget = tc.raceBudget
			}
			if perJob > budget {
				t.Errorf("Run allocates %.4f times per job, budget %.3f", perJob, budget)
			}
		})
	}
}
