package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestParseBenchmemLine(t *testing.T) {
	r, ok := parse("BenchmarkRPCThroughput/v2-pipelined-8   \t   20000\t      3125 ns/op\t  320000 ops/s\t     112 B/op\t       0 allocs/op")
	if !ok {
		t.Fatal("a -benchmem line did not parse")
	}
	if r.Name != "BenchmarkRPCThroughput/v2-pipelined-8" || r.Iterations != 20000 {
		t.Fatalf("name %q, iterations %d", r.Name, r.Iterations)
	}
	want := map[string]float64{"ns/op": 3125, "ops/s": 320000, "B/op": 112, "allocs/op": 0}
	if len(r.Metrics) != len(want) {
		t.Fatalf("metrics %v, want %v", r.Metrics, want)
	}
	for k, v := range want {
		if got, ok := r.Metrics[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
	for _, line := range []string{"PASS", "ok  \trepro\t1.2s", "goos: linux", "BenchmarkX-8 notanumber 1 ns/op"} {
		if _, ok := parse(line); ok {
			t.Errorf("%q parsed as a benchmark", line)
		}
	}
}

func TestCheckGates(t *testing.T) {
	results := []result{
		{Name: "BenchmarkS/event-1M-8", Metrics: map[string]float64{"jobs/s": 50}},
		{Name: "BenchmarkS/event-10k-8", Metrics: map[string]float64{"jobs/s": 100}},
	}
	for _, tc := range []struct {
		spec   string
		passed bool
		log    string
	}{
		{"BenchmarkS/event-1M:jobs/s:BenchmarkS/event-10k:jobs/s:0.45", true, "gate ok"},
		{"BenchmarkS/event-1M:jobs/s:BenchmarkS/event-10k:jobs/s:0.6", false, "gate FAIL"},
		{"BenchmarkS/event-100M:jobs/s:BenchmarkS/event-10k:jobs/s:0.1", false, `no benchmark "BenchmarkS/event-100M"`},
		{"BenchmarkS/event-1M:jobs/s:BenchmarkS/event-10k:allocs/op:0.1", false, `has no metric "allocs/op"`},
	} {
		var gates gateFlags
		if err := gates.Set(tc.spec); err != nil {
			t.Fatal(err)
		}
		var log strings.Builder
		if got := checkGates(&log, results, gates); got != tc.passed || !strings.Contains(log.String(), tc.log) {
			t.Errorf("%s: passed %v, log %q; want %v and %q", tc.spec, got, log.String(), tc.passed, tc.log)
		}
	}
}

// TestCIGatesParse feeds each -gate argument CI's workflow passes through
// the same flag set main builds.
func TestCIGatesParse(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var args []string
	for _, m := range regexp.MustCompile(`-gate '([^']+)'`).FindAllStringSubmatch(string(ci), -1) {
		args = append(args, "-gate", m[1])
	}
	if len(args) != 4 {
		t.Fatalf("found %d -gate arguments in ci.yml, want 2", len(args)/2)
	}
	var gates gateFlags
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Var(&gates, "gate", "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if len(gates) != 2 || fs.NArg() != 0 {
		t.Fatalf("parsed %d gates and %d stray arguments", len(gates), fs.NArg())
	}
}
