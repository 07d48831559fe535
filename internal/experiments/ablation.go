package experiments

import (
	"fmt"
	"io"

	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// AblationRow is one policy's outcome on workload W1.
type AblationRow struct {
	Policy         string
	Utilization    float64
	MeanTurnaround float64
	TotalRedist    float64
	Resizes        int
}

// PolicyAblation runs workload W1 under alternative Remap Scheduler
// policies — the design-choice study DESIGN.md calls out: the published
// policy, the threshold-based sweet-spot detector the paper sketches in
// §4.1.1, and the cost-aware variant that amortizes recorded redistribution
// costs (§4.1.2).
func PolicyAblation(params *perfmodel.Params) ([]AblationRow, error) {
	estimate := func(in scheduler.RemapInput, d scheduler.Decision) (float64, bool) {
		// Use the perfmodel's redistribution predictor for an LU-sized
		// array; the real framework would use the application's own record.
		return params.RedistTime(perfmodel.AppModel{App: "lu", N: 12000}, in.Current, d.Target), true
	}
	policies := []scheduler.Policy{
		scheduler.PaperPolicy{},
		scheduler.ThresholdPolicy{MinImprovement: 0.05},
		scheduler.ThresholdPolicy{MinImprovement: 0.15},
		scheduler.CostAwarePolicy{EstimateRedist: estimate},
	}
	var rows []AblationRow
	for _, pol := range policies {
		sim := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, workload.W1()).WithPolicy(pol)
		res, err := sim.Run()
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol.Name(), err)
		}
		row := AblationRow{Policy: pol.Name(), Utilization: res.Utilization, MeanTurnaround: res.MeanTurnaround()}
		for _, j := range res.Jobs {
			row.TotalRedist += j.TotalRedist
			for _, r := range j.Iters {
				if r.RedistSec > 0 {
					row.Resizes++
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScheduleAblationRow compares the circulant schedule against the naive
// single-phase exchange for one grid transition.
type ScheduleAblationRow struct {
	Transition      string
	CirculantSteps  int
	NaiveContention int
}

// ScheduleAblation quantifies why the contention-free schedule matters: the
// naive exchange makes up to p/gcd(p,q) senders target one receiver
// simultaneously, while the circulant schedule serializes them into
// contention-free steps.
func ScheduleAblation() []ScheduleAblationRow {
	transitions := []struct{ from, to grid.Topology }{
		{grid.Topology{Rows: 1, Cols: 2}, grid.Topology{Rows: 2, Cols: 2}},
		{grid.Topology{Rows: 3, Cols: 4}, grid.Topology{Rows: 4, Cols: 4}},
		{grid.Topology{Rows: 5, Cols: 5}, grid.Topology{Rows: 5, Cols: 8}},
		{grid.Topology{Rows: 6, Cols: 8}, grid.Topology{Rows: 2, Cols: 2}},
	}
	var rows []ScheduleAblationRow
	for _, tr := range transitions {
		rows = append(rows, ScheduleAblationRow{
			Transition:      fmt.Sprintf("%s->%s", tr.from, tr.to),
			CirculantSteps:  grid.CirculantSteps(tr.from, tr.to),
			NaiveContention: naiveContention(tr.from, tr.to),
		})
	}
	return rows
}

func naiveContention(from, to grid.Topology) int {
	r := from.Rows / grid.GCD(from.Rows, to.Rows)
	c := from.Cols / grid.GCD(from.Cols, to.Cols)
	if r < 1 {
		r = 1
	}
	if c < 1 {
		c = 1
	}
	return r * c
}

// printAblations writes the policy ablation table, a blank line and the
// schedule ablation table.
func printAblations(w io.Writer, params *perfmodel.Params) error {
	rows, err := PolicyAblation(params)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Policy ablation on workload 1")
	fmt.Fprintf(w, "%-22s %10s %16s %14s %8s\n",
		"policy", "util(%)", "mean turnarnd(s)", "total redist(s)", "resizes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %10.1f %16.1f %14.1f %8d\n",
			r.Policy, 100*r.Utilization, r.MeanTurnaround, r.TotalRedist, r.Resizes)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "# Schedule ablation: circulant steps vs naive receive contention")
	fmt.Fprintf(w, "%-14s %16s %18s\n", "transition", "circulant steps", "naive contention")
	for _, r := range ScheduleAblation() {
		fmt.Fprintf(w, "%-14s %16d %18d\n", r.Transition, r.CirculantSteps, r.NaiveContention)
	}
	return nil
}

// printLoadSweep writes a static-vs-dynamic utilization/turnaround sweep
// over synthetic arrival rates (a generated 20-job mix).
func printLoadSweep(w io.Writer, params *perfmodel.Params) error {
	points, err := workload.LoadSweep(workload.ClusterProcs, params, 20, 1,
		[]float64{50, 100, 200, 400, 800, 1600})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Load sweep: synthetic 20-job mixes at varying arrival rates")
	fmt.Fprintf(w, "%-18s %12s %13s %16s %17s\n",
		"mean interarrival", "static util", "dynamic util", "static turn(s)", "dynamic turn(s)")
	for _, pt := range points {
		fmt.Fprintf(w, "%-18.0f %11.1f%% %12.1f%% %16.1f %17.1f\n",
			pt.MeanInterarrival, 100*pt.StaticUtil, 100*pt.DynamicUtil,
			pt.StaticMeanTurn, pt.DynamicMeanTurn)
	}
	return nil
}
