package experiments

import (
	"slices"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/scheduler/modes"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// collected gathers a result's trace into a slice, for comparing runs.
func collected(r *simcluster.Result) []scheduler.AllocEvent {
	var out []scheduler.AllocEvent
	for _, e := range r.Events {
		out = append(out, e)
	}
	return out
}

// oracleRuns runs ModeComparison with the oracle predictor and returns a
// lookup of its results by mix and mode.
func oracleRuns(t *testing.T) func(mix, mode string) *simcluster.Result {
	runs, err := ModeComparison(perfmodel.SystemX(), true)
	if err != nil {
		t.Fatal(err)
	}
	return func(mix, mode string) *simcluster.Result {
		return runs[slices.IndexFunc(runs, func(r ModeRun) bool { return r.Mix == mix && r.Mode == mode })].Result
	}
}

// improvement is the relative reduction from before to after (positive =
// after better).
func improvement(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (before - after) / before
}

// TestArbiterImprovesQueueWait is the acceptance gate of the arbitration
// layer: on the paper's workload mixes the benefit-ranked arbiter must
// never increase mean queue wait over the published FCFS path, and on the
// mixes with real queue contention (W1 and the contended generated mix) it
// must strictly reduce it. The measured values are recorded in DESIGN.md's
// "Arbitration layer" section.
func TestArbiterImprovesQueueWait(t *testing.T) {
	run := oracleRuns(t)
	for _, mix := range []string{"W1", "W2", "contended"} {
		fcfs, arb := run(mix, "fcfs"), run(mix, "benefit")
		fw, aw := fcfs.MeanQueueWait(), arb.MeanQueueWait()
		t.Logf("%-10s jobs=%2d  mean wait %7.1fs -> %7.1fs (%+.1f%%)  mean turnaround %7.1fs -> %7.1fs",
			mix, len(arb.Jobs), fw, aw, -100*improvement(fw, aw), fcfs.MeanTurnaround(), arb.MeanTurnaround())
		if aw > fw+1e-9 {
			t.Errorf("%s: arbiter mean wait %.2fs exceeds FCFS %.2fs", mix, aw, fw)
		}
		if (mix == "W1" || mix == "contended") && improvement(fw, aw) <= 0 {
			t.Errorf("%s: no queue-wait improvement (FCFS %.2fs, arbiter %.2fs)", mix, fw, aw)
		}
	}
}

// TestRebalanceComparisonGate is the acceptance gate of the global
// rebalancer: on the contended generated mix its makespan and p99 queue
// wait must be no worse than the benefit-ranked arbiter's, and at least
// one of W1/W2/contended must show a measured improvement. The measured
// values are recorded in DESIGN.md's "Global rebalancing" section.
func TestRebalanceComparisonGate(t *testing.T) {
	run := oracleRuns(t)
	improved := false
	for _, mix := range []string{"W1", "W2", "contended"} {
		arb, reb := run(mix, "benefit"), run(mix, "rebalance")
		t.Logf("%-10s jobs=%2d  makespan %8.1fs -> %8.1fs (%+.2f%%)  p99 wait %7.1fs -> %7.1fs  turnaround %7.1fs -> %7.1fs  util %.3f -> %.3f",
			mix, len(reb.Jobs), arb.Makespan, reb.Makespan, -100*improvement(arb.Makespan, reb.Makespan),
			arb.QueueWaitP99(), reb.QueueWaitP99(), arb.MeanTurnaround(), reb.MeanTurnaround(), arb.Utilization, reb.Utilization)
		if improvement(arb.Makespan, reb.Makespan) > 1e-9 || improvement(arb.MeanTurnaround(), reb.MeanTurnaround()) > 1e-9 {
			improved = true
		}
		if mix != "contended" {
			continue
		}
		if reb.Makespan > arb.Makespan+1e-9 {
			t.Errorf("contended: rebalancer makespan %.2fs exceeds arbiter %.2fs", reb.Makespan, arb.Makespan)
		}
		if reb.QueueWaitP99() > arb.QueueWaitP99()+1e-9 {
			t.Errorf("contended: rebalancer p99 wait %.2fs exceeds arbiter %.2fs", reb.QueueWaitP99(), arb.QueueWaitP99())
		}
	}
	if !improved {
		t.Error("no mix improved under the global rebalancer")
	}
}

// TestFairshareProtectsVictims is the noisy-neighbor acceptance gate of
// the fair-share subsystem: with one tenant bursting 10x over two steady
// tenants, each victim's p99 queue wait under the fair-share arbiter must
// be strictly better than under tenant-blind benefit arbitration. The
// measured values are recorded in DESIGN.md's "Fair-share and admission
// control" section.
func TestFairshareProtectsVictims(t *testing.T) {
	run := oracleRuns(t)
	benefit, fair := run("noisy", "benefit"), run("noisy", "fairshare")
	for _, tenant := range []string{"noisy", "victim1", "victim2"} {
		n := 0
		for _, j := range fair.Jobs {
			if j.Tenant == tenant {
				n++
			}
		}
		bp, fp := benefit.TenantQueueWaitP99(tenant), fair.TenantQueueWaitP99(tenant)
		t.Logf("%-8s jobs=%2d  mean wait %7.1fs -> %7.1fs  p99 %7.1fs -> %7.1fs",
			tenant, n, benefit.TenantMeanQueueWait(tenant), fair.TenantMeanQueueWait(tenant), bp, fp)
		if tenant != "noisy" && fp >= bp {
			t.Errorf("%s: fair-share p99 wait %.1fs not better than benefit %.1fs", tenant, fp, bp)
		}
	}
}

// TestFairshareSingleTenantBitIdentical pins the degeneracy contract of
// the fair-share arbiter: on the paper's single-tenant workloads W1 and W2
// the fair-share wrapper must reproduce the bare benefit-ranked arbiter's
// schedule bit for bit — same allocation-event trace, same per-job
// timings. This is what lets reshaped default tenant-less deployments onto
// fairshare without a behavioral diff.
func TestFairshareSingleTenantBitIdentical(t *testing.T) {
	params := perfmodel.SystemX()
	for _, w := range []struct {
		name string
		jobs []simcluster.JobInput
	}{{"W1", workload.W1()}, {"W2", workload.W2()}} {
		run := func(mode string, weights map[string]float64) *simcluster.Result {
			t.Helper()
			arb, err := modes.Build(mode, modes.Inputs{Weights: weights, Predict: simcluster.Predictor(params, w.jobs)})
			if err != nil {
				t.Fatal(err)
			}
			res, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, w.jobs).WithArbiter(arb).Run()
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode, err)
			}
			return res
		}
		bare := run("benefit", nil)
		wrapped := run("fairshare", map[string]float64{"unused": 2}) // weights are inert without tenants
		if bare.Makespan != wrapped.Makespan || bare.Utilization != wrapped.Utilization {
			t.Fatalf("%s: makespan/util diverge: %v/%v vs %v/%v", w.name,
				bare.Makespan, bare.Utilization, wrapped.Makespan, wrapped.Utilization)
		}
		if !slices.Equal(collected(bare), collected(wrapped)) {
			t.Fatalf("%s: allocation traces diverge", w.name)
		}
		for i := range bare.Jobs {
			if bare.Jobs[i].Start != wrapped.Jobs[i].Start || bare.Jobs[i].End != wrapped.Jobs[i].End {
				t.Fatalf("%s: job %q schedule diverged", w.name, bare.Jobs[i].Name)
			}
		}
	}
}
