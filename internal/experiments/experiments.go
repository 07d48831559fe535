// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each experiment has a typed generator (used by tests and
// examples) and a printer that emits the series/rows the paper reports;
// Artefacts lists the printers in the one order reshape-bench runs them.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// Artefact is one evaluation artefact: the name reshape-bench -exp selects
// it by and the printer that writes it.
type Artefact struct {
	Name  string
	Print func(io.Writer) error
}

// Artefacts returns every artefact in print order: the paper's Table 2,
// Figures 2-5 and Tables 4-5, the ablations, the load sweep and the arbiter
// mode matrix. W1 and W2 are simulated at most once per returned slice, by
// the first entry that prints them.
func Artefacts(params *perfmodel.Params) []Artefact {
	w1 := sync.OnceValues(func() (*workload.Comparison, error) { return RunW1(params) })
	w2 := sync.OnceValues(func() (*workload.Comparison, error) { return RunW2(params) })
	on := func(run func() (*workload.Comparison, error), write func(io.Writer, *workload.Comparison)) func(io.Writer) error {
		return func(w io.Writer) error {
			cmp, err := run()
			if err == nil {
				write(w, cmp)
			}
			return err
		}
	}
	return []Artefact{
		{"table2", func(w io.Writer) error { printTable2(w); return nil }},
		{"fig2a", func(w io.Writer) error { return printFig2a(w, params) }},
		{"fig2b", func(w io.Writer) error { printFig2b(w, params); return nil }},
		{"fig3a", func(w io.Writer) error { return printFig3a(w, params) }},
		{"fig3b", func(w io.Writer) error { return printFig3b(w, params) }},
		{"fig4a", on(w1, func(w io.Writer, c *workload.Comparison) {
			printAllocHistory(w, "Figure 4(a) workload 1", c.Dynamic, []string{"LU", "MM", "Master-Worker", "Jacobi", "2D FFT"})
		})},
		{"fig4b", on(w1, func(w io.Writer, c *workload.Comparison) { printBusySeries(w, "Figure 4(b) workload 1", c) })},
		{"table4", on(w1, func(w io.Writer, c *workload.Comparison) { PrintTurnaroundTable(w, "Table 4 workload 1", c) })},
		{"fig5a", on(w2, func(w io.Writer, c *workload.Comparison) {
			printAllocHistory(w, "Figure 5(a) workload 2", c.Dynamic, []string{"LU", "Jacobi", "Master-Worker", "2D FFT"})
		})},
		{"fig5b", on(w2, func(w io.Writer, c *workload.Comparison) { printBusySeries(w, "Figure 5(b) workload 2", c) })},
		{"table5", on(w2, func(w io.Writer, c *workload.Comparison) { PrintTurnaroundTable(w, "Table 5 workload 2", c) })},
		{"ablation", func(w io.Writer) error { return printAblations(w, params) }},
		{"loadsweep", func(w io.Writer) error { return printLoadSweep(w, params) }},
		{"modes", func(w io.Writer) error { return printModes(w, params) }},
	}
}

// LUSizes are the LU/MM problem sizes of Table 2 / Figure 2.
var LUSizes = []int{8000, 12000, 14000, 16000, 20000, 21000, 24000}

// StartTopo returns the paper's starting configuration for an LU/MM problem
// size ("the starting processor size is the smallest size which can
// accommodate the data"): 8000 and 12000 start on 2 processors, 14000-21000
// on 4, 24000 on 8.
func StartTopo(n int) grid.Topology {
	switch {
	case n <= 12000:
		return grid.Topology{Rows: 1, Cols: 2}
	case n <= 21000:
		return grid.Topology{Rows: 2, Cols: 2}
	default:
		return grid.Topology{Rows: 2, Cols: 4}
	}
}

// Chain returns the Table 2 configuration ladder for an LU/MM size.
func Chain(n int) []grid.Topology {
	return grid.GrowthChain(StartTopo(n), n, 50)
}

// --- Table 2 ---------------------------------------------------------------

// Table2Row is one row of Table 2.
type Table2Row struct {
	Problem string
	Configs []string
}

// Table2 enumerates the processor configurations for every workload
// application.
func Table2() []Table2Row {
	var rows []Table2Row
	for _, n := range LUSizes {
		var cfgs []string
		for _, t := range Chain(n) {
			cfgs = append(cfgs, t.String())
		}
		rows = append(rows, Table2Row{Problem: fmt.Sprintf("%d (LU, MM)", n), Configs: cfgs})
	}
	var jac []string
	for _, p := range []int{4, 8, 10, 16, 20, 32, 40, 50} {
		jac = append(jac, fmt.Sprint(p))
	}
	rows = append(rows, Table2Row{Problem: "8000 (Jacobi)", Configs: jac})
	var fft []string
	for _, p := range grid.Chain1D(8192, 2, 32) {
		fft = append(fft, fmt.Sprint(p))
	}
	rows = append(rows, Table2Row{Problem: "8192 (FFT)", Configs: fft})
	var mw []string
	for p := 4; p <= 22; p += 2 {
		mw = append(mw, fmt.Sprint(p))
	}
	rows = append(rows, Table2Row{Problem: "20000 (Master-worker)", Configs: mw})
	return rows
}

// printTable2 writes Table 2.
func printTable2(w io.Writer) {
	fmt.Fprintln(w, "# Table 2: processor configurations per problem size")
	for _, r := range Table2() {
		fmt.Fprintf(w, "%-24s", r.Problem)
		for i, c := range r.Configs {
			if i > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
}

// --- Figure 2(a): LU running time vs processors -----------------------------

// SeriesPoint is one (processors, seconds) sample.
type SeriesPoint struct {
	Procs   int
	Topo    string
	Seconds float64
}

// Fig2a returns, per problem size, the LU iteration time across its
// configuration chain.
func Fig2a(params *perfmodel.Params) (map[int][]SeriesPoint, error) {
	out := make(map[int][]SeriesPoint)
	for _, n := range LUSizes {
		m := perfmodel.AppModel{App: "lu", N: n}
		for _, t := range Chain(n) {
			sec, err := params.IterTime(m, t)
			if err != nil {
				return nil, err
			}
			out[n] = append(out[n], SeriesPoint{Procs: t.Count(), Topo: t.String(), Seconds: sec})
		}
	}
	return out, nil
}

// printFig2a writes the Figure 2(a) series.
func printFig2a(w io.Writer, params *perfmodel.Params) error {
	data, err := Fig2a(params)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 2(a): LU iteration time (s) vs processors")
	fmt.Fprintln(w, "size,topology,procs,seconds")
	for _, n := range LUSizes {
		for _, pt := range data[n] {
			fmt.Fprintf(w, "%d,%s,%d,%.2f\n", n, pt.Topo, pt.Procs, pt.Seconds)
		}
	}
	return nil
}

// --- Figure 2(b): redistribution overhead -----------------------------------

// Fig2b returns, per problem size, the redistribution cost of each
// expansion step along the chain; the point is plotted at the grown
// processor count, as in the paper.
func Fig2b(params *perfmodel.Params) map[int][]SeriesPoint {
	out := make(map[int][]SeriesPoint)
	for _, n := range LUSizes {
		m := perfmodel.AppModel{App: "lu", N: n}
		chain := Chain(n)
		for i := 0; i+1 < len(chain); i++ {
			cost := params.RedistTime(m, chain[i], chain[i+1])
			out[n] = append(out[n], SeriesPoint{
				Procs:   chain[i+1].Count(),
				Topo:    fmt.Sprintf("%s->%s", chain[i], chain[i+1]),
				Seconds: cost,
			})
		}
	}
	return out
}

// printFig2b writes the Figure 2(b) series.
func printFig2b(w io.Writer, params *perfmodel.Params) {
	fmt.Fprintln(w, "# Figure 2(b): redistribution overhead (s) for expansion")
	fmt.Fprintln(w, "size,transition,procs,seconds")
	for _, n := range LUSizes {
		for _, pt := range Fig2b(params)[n] {
			fmt.Fprintf(w, "%d,%s,%d,%.2f\n", n, pt.Topo, pt.Procs, pt.Seconds)
		}
	}
}

// --- Figure 3(a): LU 12000 resize trace --------------------------------------

// Fig3a runs a lone LU(12000) under ReSHAPE on an idle 50-processor cluster
// and returns its per-iteration trace (processors, iteration time, delta,
// redistribution cost), reproducing the table of Figure 3(a).
func Fig3a(params *perfmodel.Params) ([]simcluster.IterRecord, error) {
	job := simcluster.JobInput{
		Spec: scheduler.JobSpec{
			Name: "LU", App: "lu", ProblemSize: 12000, Iterations: 10,
			InitialTopo: StartTopo(12000), Chain: Chain(12000),
		},
		Model: perfmodel.AppModel{App: "lu", N: 12000},
	}
	res, err := simcluster.New(50, simcluster.Dynamic, params, []simcluster.JobInput{job}).Run()
	if err != nil {
		return nil, err
	}
	return res.Jobs[0].Iters, nil
}

// printFig3a writes the Figure 3(a) table.
func printFig3a(w io.Writer, params *perfmodel.Params) error {
	iters, err := Fig3a(params)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 3(a): LU n=12000 iteration and redistribution trace")
	fmt.Fprintln(w, "iter,procs,topology,iter_time_s,delta_s,redist_s")
	prev := 0.0
	for _, r := range iters {
		delta := 0.0
		if prev != 0 {
			delta = prev - r.IterTime
		}
		fmt.Fprintf(w, "%d,%d,%s,%.2f,%.2f,%.2f\n", r.Iter, r.Procs, r.Topo, r.IterTime, delta, r.RedistSec)
		prev = r.IterTime
	}
	return nil
}

// --- Figure 3(b): static vs checkpoint vs ReSHAPE -----------------------------

// Fig3bRow is one application's stacked bar triple.
type Fig3bRow struct {
	App        string
	IterSec    [3]float64 // static, checkpoint, reshape: total iteration time
	RedistSec  [3]float64 // static, checkpoint, reshape: total redistribution
	Turnaround [3]float64
}

// fig3bJobs are the solo-application runs of Figure 3(b): LU(12000),
// MM(14000), Master-worker, Jacobi(8000), FFT(8192); LU, MM, Jacobi and MW
// start with 4 processors, FFT with 2.
func fig3bJobs() []simcluster.JobInput {
	mk2d := func(name, app string, n int) simcluster.JobInput {
		start := grid.Topology{Rows: 2, Cols: 2}
		return simcluster.JobInput{
			Spec: scheduler.JobSpec{
				Name: name, App: app, ProblemSize: n, Iterations: 10,
				InitialTopo: start, Chain: grid.GrowthChain(start, n, 50),
			},
			Model: perfmodel.AppModel{App: app, N: n},
		}
	}
	mk1d := func(name, app string, n int, counts []int, model perfmodel.AppModel) simcluster.JobInput {
		chain := make([]grid.Topology, len(counts))
		for i, p := range counts {
			chain[i] = grid.Row1D(p)
		}
		return simcluster.JobInput{
			Spec: scheduler.JobSpec{
				Name: name, App: app, ProblemSize: n, Iterations: 10,
				InitialTopo: chain[0], Chain: chain,
			},
			Model: model,
		}
	}
	return []simcluster.JobInput{
		mk2d("LU", "lu", 12000),
		mk2d("MM", "mm", 14000),
		mk1d("Master-Worker", "mw", 20000, []int{4, 6, 8, 10, 12, 14, 16, 18, 20, 22},
			perfmodel.AppModel{App: "mw", MWWorkSeconds: 44.1}), // 3 workers x 14.7
		mk1d("Jacobi", "jacobi", 8000, []int{4, 8, 10, 16, 20, 32, 40, 50},
			perfmodel.AppModel{App: "jacobi", N: 8000}),
		mk1d("2D FFT", "fft", 8192, []int{2, 4, 8, 16, 32},
			perfmodel.AppModel{App: "fft", N: 8192}),
	}
}

// Fig3b runs each application solo under the three strategies.
func Fig3b(params *perfmodel.Params) ([]Fig3bRow, error) {
	modes := []simcluster.Mode{simcluster.Static, simcluster.DynamicCheckpoint, simcluster.Dynamic}
	var rows []Fig3bRow
	for _, job := range fig3bJobs() {
		row := Fig3bRow{App: job.Spec.Name}
		for mi, mode := range modes {
			res, err := simcluster.New(50, mode, params, []simcluster.JobInput{job}).Run()
			if err != nil {
				return nil, err
			}
			j := res.Jobs[0]
			row.IterSec[mi] = j.ComputeTime()
			row.RedistSec[mi] = j.TotalRedist
			row.Turnaround[mi] = j.Turnaround()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// printFig3b writes the Figure 3(b) comparison.
func printFig3b(w io.Writer, params *perfmodel.Params) error {
	rows, err := Fig3b(params)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Figure 3(b): iteration + redistribution time by strategy")
	fmt.Fprintln(w, "app,strategy,iter_s,redist_s,total_s")
	names := []string{"static", "checkpoint", "reshape"}
	for _, r := range rows {
		for i, s := range names {
			fmt.Fprintf(w, "%s,%s,%.1f,%.1f,%.1f\n", r.App, s, r.IterSec[i], r.RedistSec[i], r.Turnaround[i])
		}
	}
	return nil
}

// --- Workload experiments (Figures 4-5, Tables 4-5) --------------------------

// RunW1 compares workload 1 under static and dynamic scheduling.
func RunW1(params *perfmodel.Params) (*workload.Comparison, error) {
	return workload.Compare(workload.ClusterProcs, workload.W1(), params)
}

// RunW2 compares workload 2.
func RunW2(params *perfmodel.Params) (*workload.Comparison, error) {
	return workload.Compare(workload.ClusterProcs, workload.W2(), params)
}

// printAllocHistory writes a Figure 4(a)/5(a)-style allocation history.
func printAllocHistory(w io.Writer, title string, res *simcluster.Result, jobNames []string) {
	fmt.Fprintf(w, "# %s: processor allocation history\n", title)
	fmt.Fprintln(w, "job,time_s,procs")
	for _, name := range jobNames {
		for _, pt := range res.AllocSeries(name) {
			fmt.Fprintf(w, "%s,%.1f,%.0f\n", name, pt[0], pt[1])
		}
	}
}

// printBusySeries writes a Figure 4(b)/5(b)-style busy-processor trace for
// the static and dynamic runs.
func printBusySeries(w io.Writer, title string, cmp *workload.Comparison) {
	fmt.Fprintf(w, "# %s: busy processors over time\n", title)
	fmt.Fprintln(w, "strategy,time_s,busy")
	for _, pt := range cmp.Static.BusySeries() {
		fmt.Fprintf(w, "static,%.1f,%.0f\n", pt[0], pt[1])
	}
	for _, pt := range cmp.Dynamic.BusySeries() {
		fmt.Fprintf(w, "dynamic,%.1f,%.0f\n", pt[0], pt[1])
	}
}

// PrintTurnaroundTable writes a Table 4/5-style job turnaround comparison.
func PrintTurnaroundTable(w io.Writer, title string, cmp *workload.Comparison) {
	fmt.Fprintf(w, "# %s: job turn-around time\n", title)
	fmt.Fprintf(w, "%-14s %8s %12s %13s %12s\n", "Job", "Initial", "Static(s)", "Dynamic(s)", "Diff(s)")
	for _, r := range cmp.Rows {
		fmt.Fprintf(w, "%-14s %8d %12.2f %13.2f %12.2f\n",
			r.Job, r.InitialProc, r.StaticSec, r.DynamicSec, r.Difference())
	}
	fmt.Fprintf(w, "utilization: static %.1f%%  dynamic %.1f%%\n",
		100*cmp.StaticUtilization, 100*cmp.DynamicUtilization)
}
