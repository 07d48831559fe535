package experiments

import (
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/scheduler/arbiter"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// ArbiterRow compares FCFS single-job arbitration (the published Contact
// path) against the benefit-ranked cluster arbiter on one workload mix.
type ArbiterRow struct {
	Mix         string
	Jobs        int
	FCFSWait    float64 // mean queue wait, seconds
	ArbiterWait float64
	FCFSTurn    float64 // mean turnaround, seconds
	ArbiterTurn float64
	FCFSUtil    float64
	ArbiterUtil float64
}

// ContendedMix is the heavy arbitration workload: the paper's application
// mix (Table 3's LU/MM/Jacobi/FFT/MW population) generated at arrival
// pressure well above the W1/W2 rates, with three priority levels, so
// several jobs hit resize points while others wait — the regime the
// cluster-wide arbiter exists for.
func ContendedMix() ([]simcluster.JobInput, error) {
	return workload.Generate(workload.GenConfig{
		Seed:             11,
		Jobs:             24,
		MeanInterarrival: 60,
		MaxProcs:         workload.ClusterProcs,
		PriorityLevels:   3,
	})
}

// ArbiterComparison runs the paper's workload mixes — W1, W2 and the
// contended generated mix — under the FCFS single-job arbitration path and
// under the benefit-ranked arbiter (with a perfmodel predictor), reporting
// mean queue wait, mean turnaround and utilization for each. The FCFS rows
// double as a behavioral pin: they go through the exact published Decide
// path the differential tests pin.
//
//lint:allow testonly experiment driver: TestArbiterImprovesQueueWait runs it until a reshape-bench mode exposes it
func ArbiterComparison(params *perfmodel.Params) ([]ArbiterRow, error) {
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
	var rows []ArbiterRow
	for _, m := range mixes {
		fcfs, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, m.jobs).Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s fcfs: %w", m.name, err)
		}
		arb, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, m.jobs).
			WithArbiter(&arbiter.BenefitRanked{Predict: simcluster.Predictor(params, m.jobs)}).
			Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s arbiter: %w", m.name, err)
		}
		rows = append(rows, ArbiterRow{
			Mix:         m.name,
			Jobs:        len(m.jobs),
			FCFSWait:    fcfs.MeanQueueWait(),
			ArbiterWait: arb.MeanQueueWait(),
			FCFSTurn:    fcfs.MeanTurnaround(),
			ArbiterTurn: arb.MeanTurnaround(),
			FCFSUtil:    fcfs.Utilization,
			ArbiterUtil: arb.Utilization,
		})
	}
	return rows, nil
}
