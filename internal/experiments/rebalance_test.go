package experiments

import (
	"testing"

	"repro/internal/perfmodel"
)

// MakespanImprovement is the relative makespan reduction of the global
// rebalancer over the reactive arbiter (positive = rebalancer better).
func (r RebalanceRow) MakespanImprovement() float64 {
	if r.ArbMakespan == 0 {
		return 0
	}
	return (r.ArbMakespan - r.RebMakespan) / r.ArbMakespan
}

// TurnaroundImprovement is the relative mean-turnaround reduction
// (positive = rebalancer better).
func (r RebalanceRow) TurnaroundImprovement() float64 {
	if r.ArbMeanTurn == 0 {
		return 0
	}
	return (r.ArbMeanTurn - r.RebMeanTurn) / r.ArbMeanTurn
}

// TestRebalanceComparisonGate is the acceptance gate of the global
// rebalancer: on the contended generated mix its makespan and p99 queue
// wait must be no worse than the PR 5 benefit-ranked arbiter, and at
// least one of W1/W2/contended must show a measured improvement. The
// measured values are recorded in DESIGN.md's "Global rebalancing"
// section.
func TestRebalanceComparisonGate(t *testing.T) {
	rows, err := RebalanceComparison(perfmodel.SystemX())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	improved := false
	for _, r := range rows {
		t.Logf("%-10s jobs=%2d  makespan %8.1fs -> %8.1fs (%+.2f%%)  p99 wait %7.1fs -> %7.1fs  turnaround %7.1fs -> %7.1fs  util %.3f -> %.3f",
			r.Mix, r.Jobs, r.ArbMakespan, r.RebMakespan, -100*r.MakespanImprovement(),
			r.ArbP99Wait, r.RebP99Wait, r.ArbMeanTurn, r.RebMeanTurn, r.ArbUtil, r.RebUtil)
		if r.MakespanImprovement() > 1e-9 || r.TurnaroundImprovement() > 1e-9 {
			improved = true
		}
		if r.Mix != "contended" {
			continue
		}
		if r.RebMakespan > r.ArbMakespan+1e-9 {
			t.Errorf("contended: rebalancer makespan %.2fs exceeds arbiter %.2fs", r.RebMakespan, r.ArbMakespan)
		}
		if r.RebP99Wait > r.ArbP99Wait+1e-9 {
			t.Errorf("contended: rebalancer p99 wait %.2fs exceeds arbiter %.2fs", r.RebP99Wait, r.ArbP99Wait)
		}
	}
	if !improved {
		t.Error("no mix improved under the global rebalancer")
	}
}
