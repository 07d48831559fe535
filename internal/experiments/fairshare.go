package experiments

import (
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/scheduler/arbiter"
	"repro/internal/scheduler/fairshare"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// TenantRow compares one tenant's queue-wait experience under plain
// benefit-ranked arbitration against the fair-share arbiter on the same
// mix.
type TenantRow struct {
	Tenant      string
	Jobs        int
	BenefitWait float64 // mean queue wait, seconds
	FairWait    float64
	BenefitP99  float64 // p99 queue wait, seconds
	FairP99     float64
}

// NoisyNeighborMix is the fairness stress workload: two well-behaved
// tenants submitting at a steady trickle share the cluster with one noisy
// tenant arriving 10x as fast in clumps of 10 near-simultaneous jobs — the
// regime where tenant-blind arbitration lets the burst monopolize the
// queue and the victims' tail wait explodes.
func NoisyNeighborMix() ([]simcluster.JobInput, error) {
	return workload.Generate(workload.GenConfig{
		Seed:     17,
		MaxProcs: workload.ClusterProcs,
		Tenants: []workload.TenantSpec{
			{Name: "noisy", Jobs: 30, MeanInterarrival: 60,
				Pattern: workload.Bursty, Burst: 10, BurstFactor: 100},
			{Name: "victim1", Jobs: 8, MeanInterarrival: 600},
			{Name: "victim2", Jobs: 8, MeanInterarrival: 600},
		},
	})
}

// FairShareComparison runs the noisy-neighbor mix under the benefit-ranked
// arbiter and under the fair-share arbiter (equal tenant weights, same
// benefit-ranked inner arbiter and predictor), reporting each tenant's
// mean and p99 queue wait under both. Rows follow the mix's tenant order:
// noisy, victim1, victim2.
//
//lint:allow testonly experiment driver: TestFairshareProtectsVictims runs it until a reshape-bench mode exposes it
func FairShareComparison(params *perfmodel.Params) ([]TenantRow, error) {
	mix, err := NoisyNeighborMix()
	if err != nil {
		return nil, err
	}
	benefit, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, mix).
		WithArbiter(&arbiter.BenefitRanked{Predict: simcluster.Predictor(params, mix)}).
		Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: noisy-neighbor benefit: %w", err)
	}
	fs := fairshare.New(nil)
	fs.Inner = &arbiter.BenefitRanked{Predict: simcluster.Predictor(params, mix)}
	fair, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, mix).
		WithArbiter(fs).
		Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: noisy-neighbor fairshare: %w", err)
	}
	var rows []TenantRow
	for _, tenant := range []string{"noisy", "victim1", "victim2"} {
		n := 0
		for _, j := range fair.Jobs {
			if j.Tenant == tenant {
				n++
			}
		}
		rows = append(rows, TenantRow{
			Tenant:      tenant,
			Jobs:        n,
			BenefitWait: benefit.TenantMeanQueueWait(tenant),
			FairWait:    fair.TenantMeanQueueWait(tenant),
			BenefitP99:  benefit.TenantQueueWaitP99(tenant),
			FairP99:     fair.TenantQueueWaitP99(tenant),
		})
	}
	return rows, nil
}
