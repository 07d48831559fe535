package scheduler

import (
	"context"
	"fmt"
	"testing"
)

func TestThresholdPolicyShrinksOnWeakGain(t *testing.T) {
	// 100 -> 97 s is a 3% gain: below a 5% threshold the job must fall
	// back, even though the paper policy would keep it.
	p := profileWith(
		Visit{Topo: topo(2, 2), IterTimes: []float64{100}},
		Visit{Topo: topo(2, 3), IterTimes: []float64{97}},
	)
	in := RemapInput{Current: topo(2, 3), Chain: chain12000(), Profile: p, IdleProcs: 20}

	paper := PaperPolicy{}.Decide(in)
	if paper.Action != ActionExpand {
		t.Fatalf("paper policy %+v, want expand", paper)
	}
	th := ThresholdPolicy{MinImprovement: 0.05}.Decide(in)
	if th.Action != ActionShrink || th.Target != topo(2, 2) {
		t.Fatalf("threshold policy %+v, want shrink to 2x2", th)
	}
}

func TestThresholdPolicyKeepsStrongGain(t *testing.T) {
	p := profileWith(
		Visit{Topo: topo(2, 2), IterTimes: []float64{100}},
		Visit{Topo: topo(2, 3), IterTimes: []float64{80}},
	)
	in := RemapInput{Current: topo(2, 3), Chain: chain12000(), Profile: p, IdleProcs: 20}
	d := ThresholdPolicy{MinImprovement: 0.05}.Decide(in)
	if d.Action != ActionExpand || d.Target != topo(3, 3) {
		t.Fatalf("threshold policy %+v, want expand", d)
	}
}

func TestThresholdPolicyDefersQueueHandling(t *testing.T) {
	p := profileWith(
		Visit{Topo: topo(2, 2), IterTimes: []float64{100}},
		Visit{Topo: topo(2, 3), IterTimes: []float64{80}},
	)
	in := RemapInput{
		Current: topo(2, 3), Chain: chain12000(), Profile: p,
		IdleProcs: 0, HeadNeed: 2,
	}
	d := ThresholdPolicy{MinImprovement: 0.05}.Decide(in)
	if d.Action != ActionShrink {
		t.Fatalf("queue pressure must still shrink: %+v", d)
	}
}

func TestCostAwareVetoesUnamortizableExpansion(t *testing.T) {
	// Known redistribution cost 100 s, expected gain 3 s/iter, 5 iterations
	// left: 15 s of benefit cannot pay for 100 s of redistribution.
	p := profileWith(
		Visit{Topo: topo(2, 2), IterTimes: []float64{103}},
		Visit{Topo: topo(2, 3), IterTimes: []float64{100}},
	)
	p.RecordRedist(topo(2, 3), topo(3, 3), 100)
	in := RemapInput{
		Current: topo(2, 3), Chain: chain12000(), Profile: p,
		IdleProcs: 20, RemainingIters: 5,
	}
	d := CostAwarePolicy{}.Decide(in)
	if d.Action != ActionNone {
		t.Fatalf("cost-aware %+v, want veto", d)
	}
	if want := fmt.Sprintf("cost-aware: redistribution %.1fs exceeds %.1fs amortizable benefit", 100.0, 15.0); d.Text() != want {
		t.Fatalf("cost-aware veto reads %q, want %q", d.Text(), want)
	}
	// With 100 iterations remaining the same expansion is worth it.
	in.RemainingIters = 100
	d = CostAwarePolicy{}.Decide(in)
	if d.Action != ActionExpand {
		t.Fatalf("cost-aware %+v, want expand when amortizable", d)
	}
}

func TestCostAwareAllowsFirstProbe(t *testing.T) {
	// With no expansion history and no recorded costs the policy must let
	// the job probe, otherwise no records would ever accumulate.
	p := profileWith(Visit{Topo: topo(2, 2), IterTimes: []float64{100}})
	in := RemapInput{
		Current: topo(2, 2), Chain: chain12000(), Profile: p,
		IdleProcs: 20, RemainingIters: 9,
	}
	d := CostAwarePolicy{}.Decide(in)
	if d.Action != ActionExpand {
		t.Fatalf("cost-aware %+v, want probe", d)
	}
}

func TestCostAwareUsesEstimator(t *testing.T) {
	p := profileWith(
		Visit{Topo: topo(2, 2), IterTimes: []float64{110}},
		Visit{Topo: topo(2, 3), IterTimes: []float64{100}},
	)
	in := RemapInput{
		Current: topo(2, 3), Chain: chain12000(), Profile: p,
		IdleProcs: 20, RemainingIters: 2,
	}
	pol := CostAwarePolicy{
		EstimateRedist: func(in RemapInput, d Decision) (float64, bool) { return 1000, true },
	}
	if d := pol.Decide(in); d.Action != ActionNone {
		t.Fatalf("estimated cost should veto: %+v", d)
	}
	pol.EstimateRedist = func(in RemapInput, d Decision) (float64, bool) { return 0.1, true }
	if d := pol.Decide(in); d.Action != ActionExpand {
		t.Fatalf("cheap redistribution should proceed: %+v", d)
	}
}

func TestPolicyNames(t *testing.T) {
	if (PaperPolicy{}).Name() != "paper" {
		t.Error("paper policy name")
	}
	if (ThresholdPolicy{MinImprovement: 0.05}).Name() != "threshold(5%)" {
		t.Errorf("threshold name %q", ThresholdPolicy{MinImprovement: 0.05}.Name())
	}
	if (CostAwarePolicy{}).Name() != "cost-aware+paper" {
		t.Errorf("cost-aware name %q", CostAwarePolicy{}.Name())
	}
}

func TestCorePriorityQueueOrdering(t *testing.T) {
	c := NewCore(8, false)
	c.Submit(spec("running", topo(2, 4), 8000), 0) // occupies everything
	low, _, _ := c.Submit(spec("low", topo(2, 2), 8000), 1)
	hiSpec := spec("high", topo(2, 2), 8000)
	hiSpec.Priority = 10
	high, _, _ := c.Submit(hiSpec, 2)
	started, err := c.Finish(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Both fit after the big job ends, but the high-priority one must be
	// scheduled first (and thus have the earlier start record).
	if len(started) != 2 || started[0] != high || started[1] != low {
		t.Fatalf("start order %v", started)
	}
}

func TestCorePriorityEqualIsFCFS(t *testing.T) {
	c := NewCore(4, false)
	c.Submit(spec("running", topo(2, 2), 8000), 0)
	first, _, _ := c.Submit(spec("first", topo(2, 2), 8000), 1)
	c.Submit(spec("second", topo(2, 2), 8000), 2)
	started, _ := c.Finish(0, 10)
	if len(started) != 1 || started[0] != first {
		t.Fatalf("FCFS violated: %v", started)
	}
}

func TestCoreFailRecoversResources(t *testing.T) {
	c := NewCore(8, false)
	a, _, _ := c.Submit(spec("a", topo(2, 4), 8000), 0)
	b, _, _ := c.Submit(spec("b", topo(2, 2), 8000), 1)
	started, err := c.Fail(a.ID, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Free() != 4 || len(started) != 1 || started[0] != b {
		t.Fatalf("free=%d started=%v", c.Free(), started)
	}
	last := eventAt(c, c.EventCount()-2) // error event precedes b's start
	if last.Kind != "error" {
		t.Fatalf("event kind %q", last.Kind)
	}
	if _, err := c.Fail(a.ID, 6); err == nil {
		t.Fatal("double fail accepted")
	}
}

func TestServerJobError(t *testing.T) {
	ctx := context.Background()
	srv := NewServer(4, false, nil)
	j, err := srv.Submit(ctx, spec("a", topo(2, 2), 8000))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.JobError(ctx, j); err != nil {
		t.Fatal(err)
	}
	if srv.Core().Free() != 4 {
		t.Fatalf("free = %d", srv.Core().Free())
	}
	// Wait must not block on a failed job.
	if err := srv.Wait(ctx, j); err != nil {
		t.Fatal(err)
	}
}

func TestCoreCustomPolicyWiring(t *testing.T) {
	c := NewCore(50, true)
	c.SetPolicy(ThresholdPolicy{MinImprovement: 0.5}) // absurdly strict
	j, _, _ := c.Submit(spec("a", topo(1, 2), 12000), 0)
	c.Contact(j.ID, topo(1, 2), 100, 0, 1)
	c.ResizeComplete(j.ID, 1, 1)
	// 10% gain: the strict threshold policy shrinks back where the paper
	// policy would have continued expanding.
	d, err := c.Contact(j.ID, topo(2, 2), 90, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionShrink || d.Target != topo(1, 2) {
		t.Fatalf("decision %+v, want shrink under strict threshold", d)
	}
}

func TestRemainingItersReachesPolicy(t *testing.T) {
	var seen []int
	c := NewCore(50, true)
	c.SetPolicy(policyFunc(func(in RemapInput) Decision {
		seen = append(seen, in.RemainingIters)
		return Decision{Action: ActionNone}
	}))
	j, _, _ := c.Submit(spec("a", topo(2, 2), 8000), 0) // 10 iterations
	c.Contact(j.ID, topo(2, 2), 1, 0, 1)
	c.Contact(j.ID, topo(2, 2), 1, 0, 2)
	if len(seen) != 2 || seen[0] != 9 || seen[1] != 8 {
		t.Fatalf("remaining iters %v", seen)
	}
}

// policyFunc adapts a function to the Policy interface for tests.
type policyFunc func(RemapInput) Decision

func (policyFunc) Name() string                    { return "func" }
func (f policyFunc) Decide(in RemapInput) Decision { return f(in) }
