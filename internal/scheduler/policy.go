package scheduler

import (
	"math"
	"strconv"

	"repro/internal/grid"
)

// Action is the Remap Scheduler's verdict at a resize point.
type Action uint8

const (
	// ActionNone continues on the current processor set.
	ActionNone Action = iota
	// ActionExpand grows the job to Decision.Target.
	ActionExpand
	// ActionShrink reduces the job to Decision.Target.
	ActionShrink
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionExpand:
		return "expand"
	case ActionShrink:
		return "shrink"
	default:
		return "none"
	}
}

// Decision is the Remap Scheduler's response to a contact_scheduler call.
// Its reason is text that costs nothing to set (Reason), or a Code and one
// operand rendered only when read, so no decision formats text (48 bytes,
// TestDecisionSize).
type Decision struct {
	Action Action
	Code   ReasonCode    // ReasonText: Reason is the whole text
	Target grid.Topology // meaningful for Expand/Shrink
	Reason string
	arg    uint64 // Code's operand: a job id, or a gain's IEEE-754 bits
}

// ReasonCode names a reason that AppendText renders around an operand.
type ReasonCode uint8

const (
	ReasonText              ReasonCode = iota // no operand
	ReasonYield                               // the rival given the idle pool (job id)
	ReasonCoordinatedShrink                   // the queued head the caller donates to (job id)
	ReasonPlannedShrink                       // a rebalancer directive's net gain (seconds)
	ReasonPlannedExpand                       // a rebalancer directive's net gain (seconds)
	ReasonBelowThreshold                      // ThresholdPolicy's relative expansion gain
)

// JobReason and GainReason return a decision whose reason is code's text
// around a job id or a gain.
func JobReason(a Action, target grid.Topology, code ReasonCode, jobID int) Decision {
	return Decision{Action: a, Code: code, Target: target, arg: uint64(jobID)}
}

func GainReason(a Action, target grid.Topology, code ReasonCode, gain float64) Decision {
	return Decision{Action: a, Code: code, Target: target, arg: math.Float64bits(gain)}
}

// Text renders the decision's reason.
//
//lint:allow testonly oracle: the decision traces, TestDecisionTextMatchesFormat and the arbiter tests read reasons through it; the wire renders with AppendText
func (d Decision) Text() string {
	if d.Code == ReasonText {
		return d.Reason
	}
	var buf [128]byte
	return string(d.AppendText(buf[:0]))
}

// AppendText appends the decision's reason to b, byte for byte the text
// Text returns.
func (d Decision) AppendText(b []byte) []byte {
	id, gain := int64(d.arg), math.Float64frombits(d.arg)
	switch d.Code {
	case ReasonYield:
		b = strconv.AppendInt(append(b, "yielding idle pool to job "...), id, 10)
		return append(b, " (higher benefit per processor)"...)
	case ReasonCoordinatedShrink:
		return strconv.AppendInt(append(b, "coordinated shrink to start queued job "...), id, 10)
	case ReasonPlannedShrink:
		b = strconv.AppendFloat(append(b, "rebalance: planned shrink (past fitted knee, net gain "...), gain, 'g', 3, 64)
		return append(b, "s)"...)
	case ReasonPlannedExpand:
		b = strconv.AppendFloat(append(b, "rebalance: planned expansion (net gain "...), gain, 'g', 3, 64)
		return append(b, "s)"...)
	case ReasonBelowThreshold:
		b = strconv.AppendFloat(append(b, "expansion gain "...), 100*gain, 'f', 1, 64)
		return append(b, "% below threshold"...)
	}
	return append(b, d.Reason...)
}

// RemapInput gathers everything the published policy (§3.1) consults at a
// resize point.
type RemapInput struct {
	Current grid.Topology
	Chain   []grid.Topology // the job's legal configurations, ascending
	Profile *Profile
	// IdleProcs is the number of currently unallocated processors.
	IdleProcs int
	// HeadNeed is the processor requirement of the job at the head of the
	// wait queue, the only queued job the published policy consults; 0
	// means nothing is waiting.
	HeadNeed int
	// RemainingIters is the number of outer iterations the job still has to
	// run (0 when unknown); cost-aware policies use it to amortize
	// redistribution costs.
	RemainingIters int
}

// Decide implements the Remap Scheduler policy of the paper:
//
// Shrink when the job has previously run on a smaller set and either (1) the
// last expansion provided no performance benefit — shrink back to the
// configuration before that expansion — or (2) jobs are waiting: give up
// enough processors (together with the idle pool) to start the head of the
// queue, preferring the largest (least harmful) shrink point; if even the
// smallest shrink point cannot free enough, shrink all the way to it and
// wait.
//
// Expand when there are idle processors, nothing is queued, and either the
// job has never been expanded or its previous expansion improved the
// iteration time. The target is the next configuration in the job's chain
// that fits within the idle pool.
func Decide(in RemapInput) Decision {
	cur := in.Current
	prof := in.Profile

	// Queue pressure: try to accommodate the first waiting job.
	if in.HeadNeed > 0 {
		var buf [16]grid.Topology
		pts := prof.AppendShrinkPoints(buf[:0], cur)
		if len(pts) == 0 {
			return Decision{Action: ActionNone, Reason: "queue waiting but no shrink points"}
		}
		for _, sp := range pts { // largest first
			freed := cur.Count() - sp.Count()
			if in.IdleProcs+freed >= in.HeadNeed {
				return Decision{Action: ActionShrink, Target: sp,
					Reason: "shrink to accommodate queued job"}
			}
		}
		smallest := pts[len(pts)-1]
		return Decision{Action: ActionShrink, Target: smallest,
			Reason: "queue waiting; shrink to smallest shrink point"}
	}

	// Failed expansion: shrink back to the pre-expansion configuration.
	if before, after, ok := prof.LastExpansion(); ok {
		if cur == after.Topo && len(after.IterTimes) > 0 && after.Last() >= before.Last() {
			return Decision{Action: ActionShrink, Target: before.Topo,
				Reason: "previous expansion gave no benefit"}
		}
	}

	// Expansion probe.
	if in.IdleProcs <= 0 {
		return Decision{Action: ActionNone, Reason: "no idle processors"}
	}
	if before, after, ok := prof.LastExpansion(); ok {
		if len(after.IterTimes) > 0 && after.Last() >= before.Last() {
			return Decision{Action: ActionNone, Reason: "last expansion did not improve"}
		}
		if len(after.IterTimes) == 0 {
			return Decision{Action: ActionNone, Reason: "expansion not yet measured"}
		}
	}
	next, ok := NextInChain(in.Chain, cur)
	if !ok {
		return Decision{Action: ActionNone, Reason: "already at largest configuration"}
	}
	if next.Count()-cur.Count() > in.IdleProcs {
		return Decision{Action: ActionNone, Reason: "next configuration does not fit idle pool"}
	}
	return Decision{Action: ActionExpand, Target: next, Reason: "probing larger configuration"}
}

// NextInChain returns the smallest configuration in the chain strictly
// larger than cur — the expansion step the published policy probes, shared
// with arbiter implementations.
func NextInChain(chain []grid.Topology, cur grid.Topology) (grid.Topology, bool) {
	for _, t := range chain {
		if t.Count() > cur.Count() {
			return t, true
		}
	}
	return grid.Topology{}, false
}
