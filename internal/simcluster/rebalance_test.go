package simcluster_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/durability"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/scheduler/modes"
	"repro/internal/scheduler/rebalance"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// planRecorder builds the rebalance mode for W1, pricing moves with their
// true costs and no predictor, and appends each plan it adopts to sink.
func planRecorder(t *testing.T, sink *[]rebalance.Plan) *rebalance.Rebalancer {
	t.Helper()
	reb := build(t, "rebalance", modes.Inputs{RedistCost: simcluster.RedistPredictor(perfmodel.SystemX(), workload.W1())}).(*rebalance.Rebalancer)
	reb.OnPlan = func(p rebalance.Plan) { *sink = append(*sink, p) }
	return reb
}

// runRebalanced runs one W1 simulation with the global rebalancer ticking
// every `every` seconds, capturing every adopted plan.
func runRebalanced(t *testing.T, every float64) (*simcluster.Result, []rebalance.Plan) {
	t.Helper()
	params := perfmodel.SystemX()
	jobs := workload.W1()
	var plans []rebalance.Plan
	res, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, jobs).
		WithArbiter(planRecorder(t, &plans)).
		WithRebalance(every).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, plans
}

// TestRebalanceTicksFire checks the wiring end to end: ticks fire at the
// configured cadence, stop after the last completion (the run
// terminates), and the simulation still completes every job.
func TestRebalanceTicksFire(t *testing.T) {
	res, plans := runRebalanced(t, 200)
	if len(plans) == 0 {
		t.Fatal("no planning ticks fired")
	}
	if plans[0].Now != 200 {
		t.Fatalf("first tick at %.1f, want 200", plans[0].Now)
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].Now != plans[i-1].Now+200 {
			t.Fatalf("tick cadence broke: %.1f after %.1f", plans[i].Now, plans[i-1].Now)
		}
	}
	if len(res.Jobs) != len(workload.W1()) {
		t.Fatalf("finished %d jobs, want %d", len(res.Jobs), len(workload.W1()))
	}
	// The last tick must not be long after the makespan (termination gate).
	last := plans[len(plans)-1].Now
	if last > res.Makespan+200 {
		t.Fatalf("ticks kept firing past completion: last %.1f, makespan %.1f", last, res.Makespan)
	}
}

// TestRebalancePlansDeterministic is the seed-stability acceptance gate:
// two identically configured runs adopt bit-identical plan sequences.
func TestRebalancePlansDeterministic(t *testing.T) {
	res1, plans1 := runRebalanced(t, 200)
	res2, plans2 := runRebalanced(t, 200)
	if !reflect.DeepEqual(plans1, plans2) {
		t.Fatalf("plan sequences diverged across identical runs:\n %+v\n %+v", plans1, plans2)
	}
	if res1.Makespan != res2.Makespan {
		t.Fatalf("makespan diverged: %v vs %v", res1.Makespan, res2.Makespan)
	}
}

// TestRebalanceCrashReplayReproducesPlans crashes the scheduler mid-run
// and recovers it from a genesis-replay WAL: the journaled OpRebalance
// ticks must replay to the exact plan sequence the baseline adopted, and
// the completed run must match the baseline's schedule.
func TestRebalanceCrashReplayReproducesPlans(t *testing.T) {
	params := perfmodel.SystemX()
	jobs := workload.W1()

	var basePlans []rebalance.Plan
	baseline, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, jobs).
		WithArbiter(planRecorder(t, &basePlans)).
		WithRebalance(200).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(basePlans) == 0 {
		t.Fatal("baseline adopted no plans; the fixture is too weak")
	}

	dir := t.TempDir()
	core := scheduler.NewCore(workload.ClusterProcs, true)
	st, _, err := durability.Open(dir, durability.Options{
		Sync:    durability.SyncAlways,
		Capture: func() (*scheduler.CoreState, uint64) { return core.PersistState(), 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	core.SetJournal(st.Append)

	// Plans adopted by the dying process, then — after the crash — every
	// plan the replay recomputes plus the live post-recovery ticks. Genesis
	// replay re-executes all ticks from t=0, so crashPlans alone must
	// reproduce the baseline's full sequence.
	var preCrash, crashPlans []rebalance.Plan
	restarted := false
	res, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, jobs).
		WithCore(core).
		WithArbiter(planRecorder(t, &preCrash)).
		WithRebalance(200).
		WithCrashRestart(700, func(old *scheduler.Core) (*scheduler.Core, error) {
			_ = st.Close()
			var recovered *scheduler.Core
			st2, rec, err := durability.Open(dir, durability.Options{
				Sync:    durability.SyncAlways,
				Capture: func() (*scheduler.CoreState, uint64) { return recovered.PersistState(), 0 },
			})
			if err != nil {
				return nil, err
			}
			recovered, info, err := rec.Restore(func(cs *scheduler.CoreState) (*scheduler.Core, error) {
				if cs != nil {
					return nil, errors.New("genesis replay expected no snapshot")
				}
				c := scheduler.NewCore(workload.ClusterProcs, true)
				// The arbiter is configuration: install a fresh rebalancer
				// before replay so journaled ticks recompute their plans.
				c.SetArbiter(planRecorder(t, &crashPlans))
				return c, nil
			})
			if err != nil {
				return nil, err
			}
			if !info.Recovered {
				return nil, errors.New("nothing recovered from a mid-run WAL")
			}
			recovered.SetJournal(st2.Append)
			st = st2
			restarted = true
			return recovered, nil
		}).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if !restarted {
		t.Fatal("crash point never fired")
	}
	if !reflect.DeepEqual(preCrash, basePlans[:len(preCrash)]) {
		t.Fatalf("pre-crash plans diverged from baseline prefix:\n %+v\n %+v", preCrash, basePlans[:len(preCrash)])
	}
	if !reflect.DeepEqual(crashPlans, basePlans) {
		t.Fatalf("replayed+resumed plan sequence diverged from baseline:\n %+v\n %+v", crashPlans, basePlans)
	}
	if res.Makespan != baseline.Makespan {
		t.Fatalf("makespan diverged: %.6f vs %.6f", res.Makespan, baseline.Makespan)
	}
	for i, j := range res.Jobs {
		bj := baseline.Jobs[i]
		if j.Name != bj.Name || j.Start != bj.Start || j.End != bj.End {
			t.Errorf("job %q diverged: start %.3f/%.3f end %.3f/%.3f",
				j.Name, j.Start, bj.Start, j.End, bj.End)
		}
	}
}
