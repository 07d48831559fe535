// Command reshape-bench regenerates the paper's tables and figures, the
// ablations and the arbiter mode matrix: experiments.Artefacts names them
// in the order -exp all prints them, and each prints the same bytes on
// every run. See DESIGN.md "Benchmarks and experiments".
//
// Usage:
//
//	reshape-bench -exp all
//	reshape-bench -exp <name>    # one artefact; -h lists the names
//
// Scheduler throughput is measured, and profiled, by the root package's
// BenchmarkSchedulerThroughput (DESIGN.md "Scaling to a million jobs"):
//
//	go test -run XXX -bench 'BenchmarkSchedulerThroughput/event-1M' -benchtime 1x -cpuprofile cpu.prof -memprofile mem.prof .
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/perfmodel"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command on its arguments and streams; it returns the exit
// status: 2 for a usage error, 1 when an artefact fails.
func run(args []string, stdout, stderr io.Writer) int {
	artefacts := experiments.Artefacts(perfmodel.SystemX())
	var names []string
	for _, a := range artefacts {
		names = append(names, a.Name)
	}
	fs := flag.NewFlagSet("reshape-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: all, "+strings.Join(names, ", "))
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *exp != "all" {
		i := slices.IndexFunc(artefacts, func(a experiments.Artefact) bool { return a.Name == *exp })
		if i < 0 {
			fmt.Fprintf(stderr, "reshape-bench: unknown experiment %q (want all, %s)\n", *exp, strings.Join(names, ", "))
			return 2
		}
		artefacts = artefacts[i : i+1]
	}
	for _, a := range artefacts {
		if err := a.Print(stdout); err != nil {
			fmt.Fprintln(stderr, "reshape-bench:", err)
			return 1
		}
		if *exp == "all" {
			fmt.Fprintln(stdout)
		}
	}
	return 0
}
