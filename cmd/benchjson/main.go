// Command benchjson converts `go test -bench` output on stdin into a JSON
// array on stdout, one object per benchmark result:
//
//	go test -run XXX -bench BenchmarkArbiter -benchtime 1x . | benchjson
//	[{"name":"BenchmarkArbiter/fcfs-8","iterations":1,
//	  "metrics":{"ns/op":445609,"jobs/s":53891,"mean-wait-s":708.2}}]
//
// CI pipes the scheduler benchmarks through it and uploads the result as
// the BENCH_scheduler.json artifact, so the performance trajectory is
// tracked across PRs in a machine-readable form (run with -benchmem and
// allocs/op and B/op flow through like any other metric pair).
// Non-benchmark lines (headers, PASS/ok trailers) pass through to stderr
// untouched, keeping the human-readable log visible in the CI step output.
//
// The -gate flag turns benchjson into a scaling-curve gate on top of the
// conversion: each occurrence takes "num:den:min" where num and den are
// "bench/name:metric" references into the parsed results (GOMAXPROCS
// suffixes like -8 are ignored when matching), and the run fails if
// metric(num) < min * metric(den). CI uses it to fail when jobs/s at the
// 1M-job mix sags below a set fraction of jobs/s at 10k — the flattened
// scaling curve is a gated invariant, not just a tracked number:
//
//	... | benchjson -gate 'BenchmarkSchedulerThroughput/event-1M:jobs/s:BenchmarkSchedulerThroughput/event-10k:jobs/s:0.45'
//
// A gate referencing a benchmark or metric missing from the input is an
// error (a silently skipped gate would pass forever).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// gate is one parsed -gate spec: fail unless num >= min * den.
type gate struct {
	numBench, numMetric string
	denBench, denMetric string
	min                 float64
}

// gateFlags collects repeated -gate occurrences.
type gateFlags []gate

func (g *gateFlags) String() string { return fmt.Sprintf("%d gates", len(*g)) }

func (g *gateFlags) Set(spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) != 5 {
		return fmt.Errorf("want num-bench:num-metric:den-bench:den-metric:min, got %q", spec)
	}
	min, err := strconv.ParseFloat(parts[4], 64)
	if err != nil || min <= 0 {
		return fmt.Errorf("bad gate minimum %q", parts[4])
	}
	*g = append(*g, gate{
		numBench: parts[0], numMetric: parts[1],
		denBench: parts[2], denMetric: parts[3],
		min: min,
	})
	return nil
}

// procSuffix strips the -<GOMAXPROCS> suffix go test appends to benchmark
// names, so gate specs stay machine-independent.
var procSuffix = regexp.MustCompile(`-\d+$`)

// lookup resolves a bench/metric reference against the parsed results.
func lookup(results []result, bench, metric string) (float64, error) {
	for _, r := range results {
		if procSuffix.ReplaceAllString(r.Name, "") != bench {
			continue
		}
		v, ok := r.Metrics[metric]
		if !ok {
			return 0, fmt.Errorf("benchmark %q has no metric %q", bench, metric)
		}
		return v, nil
	}
	return 0, fmt.Errorf("no benchmark %q in input", bench)
}

func main() {
	var gates gateFlags
	flag.Var(&gates, "gate", "a `num:den:min` gate, num and den each bench/name:metric: fail unless num >= min * den (repeatable)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	results := []result{} // encode [] (not null) when nothing parses
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if r, ok := parse(line); ok {
			results = append(results, r)
		} else {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if !checkGates(os.Stderr, results, gates) {
		os.Exit(1)
	}
}

// checkGates reports every gate on w and returns whether all of them
// passed. A gate naming a benchmark or metric missing from results fails.
func checkGates(w io.Writer, results []result, gates []gate) bool {
	passed := true
	for _, g := range gates {
		num, err := lookup(results, g.numBench, g.numMetric)
		var den float64
		if err == nil {
			den, err = lookup(results, g.denBench, g.denMetric)
		}
		if err != nil {
			fmt.Fprintln(w, "benchjson: gate:", err)
			passed = false
			continue
		}
		ratio := 0.0
		if den != 0 {
			ratio = num / den
		}
		status := "ok"
		if num < g.min*den {
			status = "FAIL"
			passed = false
		}
		fmt.Fprintf(w, "benchjson: gate %s: %s:%s / %s:%s = %.3f (min %.3f)\n",
			status, g.numBench, g.numMetric, g.denBench, g.denMetric, ratio, g.min)
	}
	return passed
}

// parse decodes one `Benchmark<Name>-P  N  <value> <unit> ...` line.
func parse(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}
