// Command reshape-bench regenerates the paper's tables and figures. Each
// experiment prints the rows/series the paper reports; see DESIGN.md
// "Benchmarks and experiments" for the benches behind them.
//
// Usage:
//
//	reshape-bench -exp all
//	reshape-bench -exp fig3a
//	reshape-bench -exp table4
//
// The -cpuprofile/-memprofile flags wrap the selected experiments in pprof
// collection; combined with -exp scale -scale-jobs they reproduce the
// million-job scheduler profiles DESIGN.md's scaling section is based on:
//
//	reshape-bench -exp scale -scale-jobs 1000000 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table2, fig2a, fig2b, fig3a, fig3b, fig4a, fig4b, table4, fig5a, fig5b, table5, ablation, loadsweep, scale")
	scaleJobs := flag.String("scale-jobs", "", "comma-separated job counts for -exp scale (default 1000,10000)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile taken after the selected experiments to this file")
	flag.Parse()
	params := perfmodel.SystemX()
	w := os.Stdout

	var scaleCounts []int
	if *scaleJobs != "" {
		for _, part := range strings.Split(*scaleJobs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "reshape-bench: bad -scale-jobs entry %q\n", part)
				os.Exit(2)
			}
			scaleCounts = append(scaleCounts, n)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}

	var w1, w2 *workload.Comparison
	needW1 := func() *workload.Comparison {
		if w1 == nil {
			c, err := experiments.RunW1(params)
			check(err)
			w1 = c
		}
		return w1
	}
	needW2 := func() *workload.Comparison {
		if w2 == nil {
			c, err := experiments.RunW2(params)
			check(err)
			w2 = c
		}
		return w2
	}

	run := map[string]func(){
		"table2": func() { experiments.PrintTable2(w) },
		"fig2a":  func() { check(experiments.PrintFig2a(w, params)) },
		"fig2b":  func() { experiments.PrintFig2b(w, params) },
		"fig3a":  func() { check(experiments.PrintFig3a(w, params)) },
		"fig3b":  func() { check(experiments.PrintFig3b(w, params)) },
		"fig4a": func() {
			experiments.PrintAllocHistory(w, "Figure 4(a) workload 1", needW1().Dynamic,
				[]string{"LU", "MM", "Master-Worker", "Jacobi", "2D FFT"})
		},
		"fig4b":  func() { experiments.PrintBusySeries(w, "Figure 4(b) workload 1", needW1()) },
		"table4": func() { experiments.PrintTurnaroundTable(w, "Table 4 workload 1", needW1()) },
		"fig5a": func() {
			experiments.PrintAllocHistory(w, "Figure 5(a) workload 2", needW2().Dynamic,
				[]string{"LU", "Jacobi", "Master-Worker", "2D FFT"})
		},
		"fig5b":  func() { experiments.PrintBusySeries(w, "Figure 5(b) workload 2", needW2()) },
		"table5": func() { experiments.PrintTurnaroundTable(w, "Table 5 workload 2", needW2()) },
		"ablation": func() {
			check(experiments.PrintPolicyAblation(w, params))
			fmt.Fprintln(w)
			experiments.PrintScheduleAblation(w)
		},
		"loadsweep": func() { check(experiments.PrintLoadSweep(w, params)) },
		"scale":     func() { check(experiments.PrintSchedulerScale(w, params, scaleCounts...)) },
	}
	order := []string{"table2", "fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b", "table4", "fig5a", "fig5b", "table5", "ablation", "loadsweep", "scale"}

	if *exp == "all" {
		for _, name := range order {
			run[name]()
			fmt.Fprintln(w)
		}
		return
	}
	f, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "reshape-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	f()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reshape-bench:", err)
		os.Exit(1)
	}
}
