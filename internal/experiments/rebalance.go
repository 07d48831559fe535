package experiments

import (
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/scheduler/arbiter"
	"repro/internal/scheduler/rebalance"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// DefaultRebalanceTick is the planning-tick cadence the comparison (and
// the recorded DESIGN.md numbers) use: long enough that several resize
// points land between ticks on SystemX iteration times, short enough
// that a plan is never more than a few iterations stale.
const DefaultRebalanceTick = 120

// RebalanceRow compares the PR 5 reactive benefit-ranked arbiter against
// the global rebalancer (the same arbiter wrapped by the curve-driven
// planner) on one workload mix.
type RebalanceRow struct {
	Mix  string
	Jobs int

	ArbMakespan float64 // reactive arbiter
	RebMakespan float64 // with global rebalancing

	ArbP99Wait float64 // p99 queue wait, seconds
	RebP99Wait float64

	ArbMeanWait float64
	RebMeanWait float64

	ArbMeanTurn float64
	RebMeanTurn float64

	ArbUtil float64
	RebUtil float64
}

// RebalanceComparison runs W1, W2 and the contended generated mix under
// the reactive benefit-ranked arbiter (the PR 5 baseline, with the
// perfmodel predictor) and under the global rebalancer ticking every
// DefaultRebalanceTick seconds, reporting makespan, queue-wait tail and
// utilization for each. Both sides share identical predictor
// configuration, so every delta is attributable to the planning layer.
//
//lint:allow testonly experiment driver: TestRebalanceComparisonGate runs it until a reshape-bench mode exposes it
func RebalanceComparison(params *perfmodel.Params) ([]RebalanceRow, error) {
	contended, err := ContendedMix()
	if err != nil {
		return nil, err
	}
	mixes := []struct {
		name string
		jobs []simcluster.JobInput
	}{
		{"W1", workload.W1()},
		{"W2", workload.W2()},
		{"contended", contended},
	}
	var rows []RebalanceRow
	for _, m := range mixes {
		base, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, m.jobs).
			WithArbiter(&arbiter.BenefitRanked{Predict: simcluster.Predictor(params, m.jobs)}).
			Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s arbiter: %w", m.name, err)
		}
		reb := rebalance.New(&arbiter.BenefitRanked{Predict: simcluster.Predictor(params, m.jobs)})
		reb.Predict = simcluster.Predictor(params, m.jobs)
		reb.RedistCost = simcluster.RedistPredictor(params, m.jobs)
		rebRes, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, m.jobs).
			WithArbiter(reb).
			WithRebalance(DefaultRebalanceTick).
			Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s rebalance: %w", m.name, err)
		}
		rows = append(rows, RebalanceRow{
			Mix:         m.name,
			Jobs:        len(m.jobs),
			ArbMakespan: base.Makespan,
			RebMakespan: rebRes.Makespan,
			ArbP99Wait:  base.QueueWaitP99(),
			RebP99Wait:  rebRes.QueueWaitP99(),
			ArbMeanWait: base.MeanQueueWait(),
			RebMeanWait: rebRes.MeanQueueWait(),
			ArbMeanTurn: base.MeanTurnaround(),
			RebMeanTurn: rebRes.MeanTurnaround(),
			ArbUtil:     base.Utilization,
			RebUtil:     rebRes.Utilization,
		})
	}
	return rows, nil
}
