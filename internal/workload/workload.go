package workload

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
)

// ClusterProcs is the processor pool used by both workload experiments (the
// paper schedules W1 and W2 on 36 processors of System X).
const ClusterProcs = 36

// Iterations per job ("a single job consisted of ten iterations").
const Iterations = 10

// job builds a JobInput for a 2-D grid application.
func job2D(name, app string, n int, initial grid.Topology, arrival float64, maxProcs int) simcluster.JobInput {
	return simcluster.JobInput{
		Spec: scheduler.JobSpec{
			Name:        name,
			App:         app,
			ProblemSize: n,
			Iterations:  Iterations,
			InitialTopo: initial,
			Chain:       grid.GrowthChain(initial, n, maxProcs),
		},
		Model:   perfmodel.AppModel{App: app, N: n},
		Arrival: arrival,
	}
}

// job1D builds a JobInput for a 1-D application on the given processor
// ladder.
func job1D(name, app string, n int, chain []grid.Topology, arrival float64, model perfmodel.AppModel) simcluster.JobInput {
	return simcluster.JobInput{
		Spec: scheduler.JobSpec{
			Name:        name,
			App:         app,
			ProblemSize: n,
			Iterations:  Iterations,
			InitialTopo: chain[0],
			Chain:       chain,
		},
		Model:   model,
		Arrival: arrival,
	}
}

// ladder lays out 1-D processor counts as a chain of row topologies.
func ladder(counts []int) []grid.Topology {
	chain := make([]grid.Topology, len(counts))
	for i, p := range counts {
		chain[i] = grid.Row1D(p)
	}
	return chain
}

// W1 is workload 1 (Figure 4, Table 4): LU(21000) and MM(14000) arrive at
// t=0, the master-worker at t=450, Jacobi(8000) and FFT(8192) at t=465.
// Initial allocations follow Table 4: LU 6, MM 8, MW 2, Jacobi 4, FFT 4.
func W1() []simcluster.JobInput {
	return []simcluster.JobInput{
		job2D("LU", "lu", 21000, grid.Topology{Rows: 2, Cols: 3}, 0, ClusterProcs),
		job2D("MM", "mm", 14000, grid.Topology{Rows: 2, Cols: 4}, 0, ClusterProcs),
		job1D("Master-Worker", "mw", 4000000000, ladder([]int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22}), 450,
			perfmodel.AppModel{App: "mw", MWWorkSeconds: 14.7}),
		job1D("Jacobi", "jacobi", 8000, ladder([]int{4, 8, 10, 16, 20, 32}), 465,
			perfmodel.AppModel{App: "jacobi", N: 8000}),
		job1D("2D FFT", "fft", 8192, ladder([]int{4, 8, 16, 32}), 465,
			perfmodel.AppModel{App: "fft", N: 8192}),
	}
}

// W2 is workload 2 (Figure 5, Table 5): LU(21000) from t=0 on 16
// processors, Jacobi(8000) on 10, the master-worker (6) at t=560, and the
// FFT (4) at t=650. The mix exercises shrink-to-accommodate: LU gives up
// processors so the queued master-worker and FFT can start.
func W2() []simcluster.JobInput {
	return []simcluster.JobInput{
		job2D("LU", "lu", 21000, grid.Topology{Rows: 4, Cols: 4}, 0, ClusterProcs),
		job1D("Jacobi", "jacobi", 8000, ladder([]int{10, 16, 20, 32}), 90,
			perfmodel.AppModel{App: "jacobi", N: 8000}),
		job1D("Master-Worker", "mw", 4000000000, ladder([]int{6, 8, 10, 12, 14, 16, 18, 20, 22}), 560,
			perfmodel.AppModel{App: "mw", MWWorkSeconds: 177.5}),
		job1D("2D FFT", "fft", 8192, ladder([]int{4, 8, 16, 32}), 650,
			perfmodel.AppModel{App: "fft", N: 8192}),
	}
}

// TurnaroundRow is one line of Tables 4/5.
type TurnaroundRow struct {
	Job         string
	InitialProc int
	StaticSec   float64
	DynamicSec  float64
}

// Difference is the paper's "Difference" column (static - dynamic).
func (r TurnaroundRow) Difference() float64 { return r.StaticSec - r.DynamicSec }

// Comparison holds the static-vs-dynamic outcome for one workload.
type Comparison struct {
	Rows               []TurnaroundRow
	StaticUtilization  float64
	DynamicUtilization float64
	Static             *simcluster.Result
	Dynamic            *simcluster.Result
}

// Compare runs a workload under static and ReSHAPE scheduling and builds
// the turnaround table.
func Compare(total int, jobs []simcluster.JobInput, params *perfmodel.Params) (*Comparison, error) {
	st, err := simcluster.New(total, simcluster.Static, params, jobs).Run()
	if err != nil {
		return nil, fmt.Errorf("workload: static run: %w", err)
	}
	dy, err := simcluster.New(total, simcluster.Dynamic, params, jobs).Run()
	if err != nil {
		return nil, fmt.Errorf("workload: dynamic run: %w", err)
	}
	cmp := &Comparison{
		StaticUtilization:  st.Utilization,
		DynamicUtilization: dy.Utilization,
		Static:             st,
		Dynamic:            dy,
	}
	byName := make(map[string]simcluster.JobResult, len(dy.Jobs))
	for _, j := range dy.Jobs {
		byName[j.Name] = j
	}
	for _, sj := range st.Jobs {
		dj, ok := byName[sj.Name]
		if !ok {
			return nil, fmt.Errorf("workload: job %q missing from dynamic run", sj.Name)
		}
		cmp.Rows = append(cmp.Rows, TurnaroundRow{
			Job:         sj.Name,
			InitialProc: sj.InitialProc,
			StaticSec:   sj.Turnaround(),
			DynamicSec:  dj.Turnaround(),
		})
	}
	return cmp, nil
}
