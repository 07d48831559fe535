// Package modes assembles the resize arbiters the scheduler can run, by
// name, so that reshaped's -arbiter flag, the experiments and the tests
// mean the same stack by a mode. A recovering daemon must install the
// arbiter the previous process ran, so Build is a pure function.
package modes

import (
	"fmt"
	"strings"

	"repro/internal/grid"
	"repro/internal/scheduler"
	"repro/internal/scheduler/arbiter"
	"repro/internal/scheduler/fairshare"
	"repro/internal/scheduler/rebalance"
)

// Names lists the modes Build knows: the published single-job policy, the
// cluster-wide benefit ranking, tenant fair share over it, and the global
// rebalancer over it.
var Names = []string{"fcfs", "benefit", "fairshare", "rebalance"}

// Summary describes a mode of Names in a few words, for command-line help;
// it is "" for a name Build does not know.
func Summary(mode string) string {
	switch mode {
	case "fcfs":
		return "published single-job policy"
	case "benefit":
		return "cluster-wide benefit ranking with priorities, aging and coordinated shrink"
	case "fairshare":
		return "tenant-weighted shares arbitrated above benefit"
	case "rebalance":
		return "benefit plus periodic curve-driven global replanning"
	}
	return ""
}

// Inputs configures a mode. The zero value is reshaped's configuration:
// equal tenant weights and no predictor, so a configuration a job has never
// run is a probe candidate and a move it has never made is priced at 0 s.
type Inputs struct {
	// Weights maps tenant → fair-share weight (nil = every tenant equal).
	// Only fairshare reads it.
	Weights map[string]float64
	// Predict estimates a job's iteration time on a configuration it has
	// never run (simcluster.Predictor is the simulator's oracle). Every
	// arbiter mode hands it to its BenefitRanked, and rebalance to its
	// planner too.
	Predict func(jobID int, t grid.Topology) (float64, bool)
	// RedistCost estimates a move's redistribution cost. Only rebalance
	// reads it.
	RedistCost func(jobID int, from, to grid.Topology) (float64, bool)
}

// Build returns the arbiter of the named mode: a nil interface for fcfs,
// the published policy path the core runs when no arbiter is installed.
// An unknown name is an error that lists Names. Planning ticks are the
// caller's: a mode's cadence is not part of it.
func Build(mode string, in Inputs) (scheduler.Arbiter, error) {
	switch mode {
	case "fcfs":
		return nil, nil
	case "benefit":
		return &arbiter.BenefitRanked{Predict: in.Predict}, nil
	case "fairshare":
		fs := fairshare.New(in.Weights)
		fs.Inner.Predict = in.Predict
		return fs, nil
	case "rebalance":
		reb := rebalance.New(&arbiter.BenefitRanked{Predict: in.Predict})
		reb.Predict = in.Predict
		reb.RedistCost = in.RedistCost
		return reb, nil
	}
	return nil, fmt.Errorf("unknown arbiter mode %q (want %s)", mode, strings.Join(Names, ", "))
}
