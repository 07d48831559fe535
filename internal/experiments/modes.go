package experiments

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/perfmodel"
	"repro/internal/scheduler/modes"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// DefaultRebalanceTick is the planning-tick cadence ModeComparison (and
// the recorded DESIGN.md numbers) use: long enough that several resize
// points land between ticks on SystemX iteration times, short enough
// that a plan is never more than a few iterations stale.
const DefaultRebalanceTick = 120

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

// ModeRun is one mix simulated under one arbiter mode.
type ModeRun struct {
	Mix  string // W1, W2, contended or noisy
	Mode string // one of modes.Names
	*simcluster.Result
}

// ModeComparison simulates W1, W2, the contended and the noisy-neighbor
// mixes under every mode in modes.Names, in that order, the rebalancer
// ticking every DefaultRebalanceTick seconds. With oracle set the arbiters
// price with each job's true model (simcluster.Predictor and
// RedistPredictor); without, they get zero Inputs, reshaped's configuration.
func ModeComparison(params *perfmodel.Params, oracle bool) ([]ModeRun, error) {
	contended, err := ContendedMix()
	if err != nil {
		return nil, err
	}
	noisy, err := NoisyNeighborMix()
	if err != nil {
		return nil, err
	}
	var runs []ModeRun
	for _, m := range []struct {
		name string
		jobs []simcluster.JobInput
	}{
		{"W1", workload.W1()},
		{"W2", workload.W2()},
		{"contended", contended},
		{"noisy", noisy},
	} {
		var in modes.Inputs
		if oracle {
			in = modes.Inputs{
				Predict:    simcluster.Predictor(params, m.jobs),
				RedistCost: simcluster.RedistPredictor(params, m.jobs),
			}
		}
		for _, mode := range modes.Names {
			arb, err := modes.Build(mode, in)
			if err != nil {
				return nil, err
			}
			sim := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, m.jobs).WithArbiter(arb)
			if mode == "rebalance" {
				sim.WithRebalance(DefaultRebalanceTick)
			}
			res, err := sim.Run()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %s: %w", m.name, mode, err)
			}
			runs = append(runs, ModeRun{Mix: m.name, Mode: mode, Result: res})
		}
	}
	return runs, nil
}

// printModes writes the mode matrix at full float precision: a row per mix
// and mode, each arbiter mode with the oracle predictor and blind, fcfs
// once. A mix with tenants adds a line per tenant after each row.
func printModes(w io.Writer, params *perfmodel.Params) error {
	oracle, err := ModeComparison(params, true)
	if err != nil {
		return err
	}
	blind, err := ModeComparison(params, false)
	if err != nil {
		return err
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	row := func(r ModeRun, predictor string) {
		fmt.Fprintf(w, "%s %s %s makespan=%s mean_wait=%s p99_wait=%s turnaround=%s util=%s\n",
			r.Mix, r.Mode, predictor, num(r.Makespan), num(r.MeanQueueWait()), num(r.QueueWaitP99()),
			num(r.MeanTurnaround()), num(r.Utilization))
		seen := map[string]bool{"": true}
		for _, j := range r.Jobs {
			if !seen[j.Tenant] {
				seen[j.Tenant] = true
				fmt.Fprintf(w, "  tenant=%s mean_wait=%s p99_wait=%s\n",
					j.Tenant, num(r.TenantMeanQueueWait(j.Tenant)), num(r.TenantQueueWaitP99(j.Tenant)))
			}
		}
	}
	fmt.Fprintln(w, "# mix mode predictor: makespan, mean and p99 queue wait, mean turnaround (s), utilization")
	for i, r := range oracle {
		if r.Mode == "fcfs" {
			row(r, "-")
			continue
		}
		row(r, "oracle")
		row(blind[i], "blind")
	}
	return nil
}
