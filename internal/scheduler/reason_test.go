package scheduler

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// TestDecisionSize pins Decision at 48 bytes: a one-byte Action and
// ReasonCode, the target, the text and one operand word. Every contact
// returns a Decision by value, so its size is on the hot path: a probe on
// BenchmarkSchedulerThroughput/event-100k (2 vCPUs, ten alternating pairs
// against the 40-byte layout with no code) measured a 64-byte layout
// slower in 9 of 10 pairs (median −9.6 % jobs/s) and this one within
// noise (6 slower, 4 faster, median +2.4 %).
func TestDecisionSize(t *testing.T) {
	if got := unsafe.Sizeof(Decision{}); got != 48 {
		t.Fatalf("Decision is %d bytes, want 48", got)
	}
}

// TestDecisionTextMatchesFormat holds every coded reason to the fmt format
// it replaced, over operands that reach each formatting branch: %d's large
// ids and %.3g's and %.1f's signed zeros, exponent forms, rounding ties,
// infinities and NaN.
func TestDecisionTextMatchesFormat(t *testing.T) {
	ids := []int{0, 255, 256, 1 << 40}
	gains := []float64{0, math.Copysign(0, -1), -0.25, -1234.5, 1e-5, 0.000123456, 999.5, 1234.5, 1e21,
		math.Inf(1), math.Inf(-1), math.NaN()}
	type want struct {
		d    Decision
		text string
	}
	var cases []want
	for _, id := range ids {
		cases = append(cases,
			want{JobReason(ActionNone, topo(0, 0), ReasonYield, id),
				fmt.Sprintf("yielding idle pool to job %d (higher benefit per processor)", id)},
			want{JobReason(ActionShrink, topo(1, 2), ReasonCoordinatedShrink, id),
				fmt.Sprintf("coordinated shrink to start queued job %d", id)})
	}
	for _, g := range gains {
		cases = append(cases,
			want{GainReason(ActionShrink, topo(1, 2), ReasonPlannedShrink, g),
				fmt.Sprintf("rebalance: planned shrink (past fitted knee, net gain %.3gs)", g)},
			want{GainReason(ActionExpand, topo(2, 2), ReasonPlannedExpand, g),
				fmt.Sprintf("rebalance: planned expansion (net gain %.3gs)", g)},
			want{GainReason(ActionShrink, topo(1, 2), ReasonBelowThreshold, g),
				fmt.Sprintf("expansion gain %.1f%% below threshold", 100*g)})
	}
	cases = append(cases, want{Decision{Reason: "no idle processors"}, "no idle processors"})
	for _, c := range cases {
		if got := c.d.Text(); got != c.text {
			t.Errorf("code %d: Text() = %q, want %q", c.d.Code, got, c.text)
		}
		if got := string(c.d.AppendText([]byte("> "))); got != "> "+c.text {
			t.Errorf("code %d: AppendText = %q, want %q", c.d.Code, got, "> "+c.text)
		}
	}
}

// TestThresholdVetoAllocatesNothing: ThresholdPolicy's veto carries its gain
// as an operand, so deciding it allocates nothing.
func TestThresholdVetoAllocatesNothing(t *testing.T) {
	p := profileWith(
		Visit{Topo: topo(2, 2), IterTimes: []float64{100}},
		Visit{Topo: topo(2, 3), IterTimes: []float64{97}},
	)
	in := RemapInput{Current: topo(2, 3), Chain: chain12000(), Profile: p, IdleProcs: 20}
	pol := ThresholdPolicy{MinImprovement: 0.05}
	var d Decision
	if allocs := testing.AllocsPerRun(100, func() { d = pol.Decide(in) }); allocs != 0 {
		t.Errorf("threshold veto: %.2f allocations, want 0", allocs)
	}
	if d.Text() != "expansion gain 3.0% below threshold" {
		t.Fatalf("threshold veto %+v reads %q", d, d.Text())
	}
}
