package modes_test

import (
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler/arbiter"
	"repro/internal/scheduler/fairshare"
	"repro/internal/scheduler/modes"
	"repro/internal/scheduler/rebalance"
)

// TestBuild builds every mode as reshaped does, with zero Inputs: fcfs is
// the nil interface the core reads as the published policy, and every
// arbiter mode names the stack the daemon installed before Build. An
// unknown mode is an error that lists them all, and given Inputs reach
// the arbiters.
func TestBuild(t *testing.T) {
	want := map[string]string{"fcfs": "", "benefit": "benefit-ranked",
		"fairshare": "fairshare", "rebalance": "rebalance(benefit-ranked)"}
	for _, mode := range modes.Names {
		a, err := modes.Build(mode, modes.Inputs{})
		name := ""
		if a != nil { // a typed nil names its type too
			name = a.Name()
		}
		if err != nil || name != want[mode] {
			t.Errorf("%s built %q, %v; want %q", mode, name, err, want[mode])
		}
	}
	if _, err := modes.Build("bogus", modes.Inputs{}); err == nil || !strings.Contains(err.Error(), strings.Join(modes.Names, ", ")) {
		t.Errorf("bogus mode: %v, want an error listing %v", err, modes.Names)
	}

	// Every input reaches every arbiter that reads it: the predictor both
	// the inner BenefitRanked and the planner, the redistribution cost the
	// planner, the weights the fair share.
	in := modes.Inputs{
		Weights:    map[string]float64{"acme": 3},
		Predict:    func(int, grid.Topology) (float64, bool) { return 7, true },
		RedistCost: func(int, grid.Topology, grid.Topology) (float64, bool) { return 11, true },
	}
	benefit, _ := modes.Build("benefit", in)
	fs, _ := modes.Build("fairshare", in)
	reb, _ := modes.Build("rebalance", in)
	// benefit, fairshare's inner arbiter, rebalance's inner arbiter and planner
	for i, p := range []func(int, grid.Topology) (float64, bool){
		benefit.(*arbiter.BenefitRanked).Predict,
		fs.(*fairshare.FairShare).Inner.Predict,
		reb.(*rebalance.Rebalancer).Inner.Predict,
		reb.(*rebalance.Rebalancer).Predict,
	} {
		if p == nil {
			t.Fatalf("predictor %d is missing", i)
		}
		if v, _ := p(0, grid.Topology{}); v != 7 {
			t.Errorf("predictor %d answers %v, want the given predictor's 7", i, v)
		}
	}
	if w := fs.(*fairshare.FairShare).Weights; w["acme"] != 3 {
		t.Errorf("fairshare weights %v, want acme=3", w)
	}
	if c := reb.(*rebalance.Rebalancer).RedistCost; c == nil {
		t.Error("rebalance has no redistribution cost")
	} else if v, _ := c(0, grid.Topology{}, grid.Topology{}); v != 11 {
		t.Errorf("rebalance prices a move at %v, want the given estimate's 11", v)
	}
}
