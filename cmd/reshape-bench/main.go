// Command reshape-bench regenerates the paper's tables and figures, the
// ablations and the arbiter mode matrix: experiments.Artefacts names them
// in the order -exp all prints them. See DESIGN.md "Benchmarks and
// experiments".
//
// Usage:
//
//	reshape-bench -exp all
//	reshape-bench -exp <name>    # one artefact; -h lists the names
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
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/perfmodel"
)

func main() {
	params := perfmodel.SystemX()
	var names []string
	for _, a := range experiments.Artefacts(params, nil) {
		names = append(names, a.Name)
	}
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(names, ", "))
	scaleJobs := flag.String("scale-jobs", "", "comma-separated job counts for -exp scale (default 1000,10000)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile taken after the selected experiments to this file")
	flag.Parse()

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
	artefacts := experiments.Artefacts(params, scaleCounts)
	if *exp != "all" {
		i := slices.IndexFunc(artefacts, func(a experiments.Artefact) bool { return a.Name == *exp })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "reshape-bench: unknown experiment %q (want all, %s)\n", *exp, strings.Join(names, ", "))
			os.Exit(2)
		}
		artefacts = artefacts[i : i+1]
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

	for _, a := range artefacts {
		check(a.Print(os.Stdout))
		if *exp == "all" {
			fmt.Println()
		}
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "reshape-bench:", err)
		os.Exit(1)
	}
}
