package scheduler

import "fmt"

// Policy decides what happens at a resize point. The Core uses PaperPolicy
// by default; alternative policies implement the strategies the paper
// sketches as future work (§4.1.1: threshold-based sweet-spot detection;
// §4.1.2: using recorded redistribution costs to inform decisions). The
// ReSHAPE framework "can easily be extended to support more sophisticated
// policies" — this is that extension point.
type Policy interface {
	Name() string
	Decide(in RemapInput) Decision
}

// PaperPolicy is the published Remap Scheduler policy of §3.1 (the Decide
// function).
type PaperPolicy struct{}

// Name identifies the policy.
func (PaperPolicy) Name() string { return "paper" }

// Decide applies the §3.1 rules.
func (PaperPolicy) Decide(in RemapInput) Decision { return Decide(in) }

// ThresholdPolicy is the "more sophisticated sweet spot detection algorithm
// (under development)" of §4.1.1: an expansion only counts as an
// improvement if the relative gain meets MinImprovement, so the scheduler
// stops probing configurations that yield diminishing returns instead of
// walking all the way to the first absolute regression.
type ThresholdPolicy struct {
	// MinImprovement is the required relative gain per expansion, e.g. 0.05
	// for 5%.
	MinImprovement float64
}

// Name identifies the policy.
func (p ThresholdPolicy) Name() string {
	return fmt.Sprintf("threshold(%.0f%%)", 100*p.MinImprovement)
}

// Decide behaves like the paper policy but holds (or shrinks back) once the
// relative improvement of the last expansion falls below the threshold.
func (p ThresholdPolicy) Decide(in RemapInput) Decision {
	if len(in.QueuedNeeds) > 0 {
		return Decide(in) // queue pressure handling is unchanged
	}
	if before, after, ok := in.Profile.LastExpansion(); ok && in.Current == after.Topo && len(after.IterTimes) > 0 {
		gain := (before.Last() - after.Last()) / before.Last()
		if gain < 0 {
			return Decision{Action: ActionShrink, Target: before.Topo,
				Reason: "expansion degraded iteration time"}
		}
		if gain < p.MinImprovement {
			return Decision{Action: ActionShrink, Target: before.Topo,
				Reason: fmt.Sprintf("expansion gain %.1f%% below threshold", 100*gain)}
		}
	}
	return Decide(in)
}

// CostAwarePolicy runs the published policy and vetoes expansions whose
// estimated redistribution cost cannot be amortized over the job's
// remaining iterations (§4.1.2: "with ReSHAPE we save a record of actual
// redistribution costs between various processor configurations, which
// allows for more informed decisions").
type CostAwarePolicy struct {
	// EstimateRedist predicts the redistribution cost between two
	// configurations when the profiler has no recorded observation; nil
	// falls back to the profiler record only (unknown costs allow the
	// expansion, since probing is how records accrue).
	EstimateRedist func(in RemapInput, d Decision) (float64, bool)
}

// Name identifies the policy.
func (p CostAwarePolicy) Name() string { return "cost-aware+" + PaperPolicy{}.Name() }

// Decide defers to the published policy, then applies the amortization test
// to expansions.
func (p CostAwarePolicy) Decide(in RemapInput) Decision {
	d := Decide(in)
	if d.Action != ActionExpand || in.RemainingIters <= 0 {
		return d
	}
	cost, known := in.Profile.RedistCost(in.Current, d.Target)
	if !known && p.EstimateRedist != nil {
		cost, known = p.EstimateRedist(in, d)
	}
	if !known {
		return d // no information: probe, so a record can be made
	}
	// Expected savings per iteration: the observed gain of the last
	// expansion, or — if this configuration was visited before — the
	// recorded difference.
	var perIter float64
	if t, ok := in.Profile.TimeAt(d.Target); ok {
		cur := in.Profile.Current()
		if cur != nil && len(cur.IterTimes) > 0 {
			perIter = cur.Last() - t
		}
	} else if before, after, ok := in.Profile.LastExpansion(); ok && len(after.IterTimes) > 0 {
		perIter = before.Last() - after.Last()
	} else {
		return d // first expansion: always probe
	}
	if perIter <= 0 {
		return Decision{Action: ActionNone,
			Reason: "cost-aware: no expected per-iteration benefit"}
	}
	if cost > perIter*float64(in.RemainingIters) {
		return Decision{Action: ActionNone,
			Reason: fmt.Sprintf("cost-aware: redistribution %.1fs exceeds %.1fs amortizable benefit",
				cost, perIter*float64(in.RemainingIters))}
	}
	return d
}
