package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/scheduler"
	"repro/internal/scheduler/arbiter"
	"repro/internal/scheduler/fairshare"
	"repro/internal/scheduler/rebalance"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

const (
	simProcs = 1024
	// simRebalanceTick is the planner period of sim-rebalance, in virtual
	// seconds (experiments.DefaultRebalanceTick's value).
	simRebalanceTick = 60
)

// simKind selects the arbiter stack a sim-* workload runs under.
type simKind int

const (
	simFCFS simKind = iota
	simFairshare
	simRebalance
)

// simMix generates the workload's job mix. sim-fcfs is the scaling curve's
// configuration (ROADMAP's event-1M row) at a tenth of the jobs. The full
// million does not fit: a pass takes 20 s, and it does not measure the
// scheduler on this box. It allocates 1.7 GB and runs at anything from 72k
// to 110k jobs a second depending on what ran before it (the first pass
// after a pause is the slow one), while the curve itself is nearly flat
// (146k jobs a second at 10k jobs, 136k at 100k, 128k at 200k, 115k at 400k).
// A traced run reports its start as simcluster.scaling_ratio. The other two
// workloads share one backlogged three-tenant mix shape, so the same
// BenefitRanked code runs per contact under one and as a planner under the
// other.
func simMix(env *runEnv, kind simKind) ([]simcluster.JobInput, error) {
	if kind == simFCFS {
		return workload.Generate(workload.GenConfig{
			Seed: env.seed, Jobs: env.scaled(100000, 200), MeanInterarrival: 2, MaxProcs: 64,
		})
	}
	// Every job is submitted within the first minutes, so the run is the
	// drain of a deep three-tenant backlog: tenant shares, start picking and
	// the planner have work at every contact, and the cost per job depends
	// little on the seed. What a planning tick costs follows the running set,
	// which differs between seeds by a share that shrinks with the square root
	// of the job count, so sim-rebalance runs many short jobs.
	n, iters := env.scaled(2000, 60), 10
	if kind == simRebalance {
		n, iters = env.scaled(6000, 60), 4
	}
	return workload.Generate(workload.GenConfig{
		Seed: env.seed, MaxProcs: 64, PriorityLevels: 3, Iterations: iters,
		Tenants: []workload.TenantSpec{
			{Name: "bursty", Jobs: n * 6 / 10, MeanInterarrival: 0.5,
				Pattern: workload.Bursty, Burst: 10, BurstFactor: 100},
			{Name: "steady", Jobs: n * 2 / 10, MeanInterarrival: 1.5},
			{Name: "diurnal", Jobs: n * 2 / 10, MeanInterarrival: 1.5,
				Pattern: workload.Diurnal, Period: 3600},
		},
	})
}

// simArbiter builds the workload's arbiter stack (nil: the published
// single-job policy path).
func simArbiter(env *runEnv, kind simKind, mix []simcluster.JobInput) scheduler.Arbiter {
	inner := func() *arbiter.BenefitRanked {
		return &arbiter.BenefitRanked{Predict: simcluster.Predictor(env.params, mix)}
	}
	switch kind {
	case simFairshare:
		fs := fairshare.New(nil)
		fs.Inner = inner()
		return fs
	case simRebalance:
		reb := rebalance.New(inner())
		reb.Predict = simcluster.Predictor(env.params, mix)
		reb.RedistCost = simcluster.RedistPredictor(env.params, mix)
		return reb
	default:
		return nil
	}
}

func simRound(env *runEnv, kind simKind, tr *tracer) (*round, error) {
	r := newRound()

	t0 := time.Now()
	mix, err := simMix(env, kind)
	if err != nil {
		return nil, err
	}
	tGen := time.Now()
	core := scheduler.NewCoreSharded(simProcs, 16, true)
	// The million-job configuration drops the allocation trace; the two
	// arbiter workloads are small enough to keep it for the pool check.
	if kind == simFCFS {
		core.DisableTrace()
	}
	arb := simArbiter(env, kind, mix)
	if tr != nil && arb != nil {
		arb = tr.traceArbiter(arb)
	}
	sim := simcluster.New(simProcs, simcluster.Dynamic, env.params, mix).WithCore(core).WithoutIterRecords()
	switch {
	case arb != nil:
		sim = sim.WithArbiter(arb)
	case tr != nil:
		// No arbiter is installed on the published path; its decisions are
		// the policy's, so that is the seam the traced run times.
		sim = sim.WithPolicy(tracedPolicy{inner: scheduler.PaperPolicy{}, decide: tr.hot("arbiter.decide", 64)})
	}
	if kind == simRebalance {
		sim = sim.WithRebalance(simRebalanceTick)
	}
	r.setupS = time.Since(t0).Seconds()
	if tr != nil {
		tr.add("workload.generate", "", "", t0, tGen)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	res, err := sim.Run()
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	if tr != nil {
		tr.add("simcluster.run", "", "", t1, t2)
	}
	r.measureS = t2.Sub(t1).Seconds()
	r.jobs = len(mix)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.attempted = len(mix)

	// Under Dynamic every job contacts the scheduler after each iteration
	// but its last.
	contacts := 0
	for _, in := range mix {
		contacts += in.Spec.Iterations - 1
	}
	r.layer["scheduler.contacts"] = float64(contacts)
	r.vals["ns_per_contact"] = 1e9 * r.measureS / float64(contacts)
	r.vals["makespan_s"] = res.Makespan
	r.vals["queue_wait_p99_s"] = res.QueueWaitP99()
	r.vals["utilization_pct"] = 100 * res.Utilization
	r.vals["alloc_mb_per_kjob"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / (float64(len(mix)) / 1000)
	r.vals["gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	// ---- checks: everything finished, the pool was never oversubscribed
	r.check(len(res.Jobs) == len(mix), "%d of %d jobs finished", len(res.Jobs), len(mix))
	r.check(core.Free() == simProcs && core.QueueLen() == 0,
		"cluster not drained: %d idle, %d queued", core.Free(), core.QueueLen())
	r.check(res.Utilization > 0 && res.Utilization <= 1, "utilization %.4f outside (0,1]", res.Utilization)
	over := 0
	for _, e := range res.Events {
		if e.Busy > simProcs || e.Busy < 0 {
			over++
		}
		switch e.Kind {
		case "expand":
			r.layer["scheduler.expands"]++
		case "shrink":
			r.layer["scheduler.shrinks"]++
		}
	}
	r.check(over == 0, "%d allocation events exceed the %d-processor pool", over, simProcs)
	for _, j := range res.Jobs {
		if j.End < j.Start || j.Start < j.Submit {
			r.failed++
		}
	}
	r.check(r.failed == 0, "%d jobs with end < start or start < submit", r.failed)
	return r, nil
}

// simRepeats is the across-rounds check of sim-*: the simulator is
// deterministic, so every round of one seed must give the same virtual-time
// outcome to the last bit.
func simRepeats(rounds []*round) []string {
	var problems []string
	for _, k := range []string{"makespan_s", "queue_wait_p99_s"} {
		for i, r := range rounds[1:] {
			if r.vals[k] != rounds[0].vals[k] {
				problems = append(problems, fmt.Sprintf("%s differs between round 0 (%v) and round %d (%v)",
					k, rounds[0].vals[k], i+1, r.vals[k]))
				break
			}
		}
	}
	return problems
}
