package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/scheduler/arbiter"
	"repro/internal/scheduler/fairshare"
	"repro/internal/scheduler/rebalance"
)

func toyEnv(t *testing.T) *runEnv {
	return &runEnv{seed: 7, scale: 0.02, conns: 2, outDir: t.TempDir(), params: perfmodel.SystemX()}
}

// parseContractLine parses a contract line and returns its metrics.
func parseContractLine(t *testing.T, res *runResult) map[string]struct {
	Value float64
	Unit  string
} {
	t.Helper()
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(contractLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Fatalf("contract line lacks correct/attempted/failed: %s", contractLine(res))
	}
	return line.Metrics
}

// TestSpecMatchesFile pins BENCHMARK.json to the tables it is printed from.
func TestSpecMatchesFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(b)) != benchmarkSpec() {
		t.Fatal("BENCHMARK.json differs from --emit-spec; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, contractMetrics...), perLayerMetricDefs...) {
		if seen[d.Name] || d.Unit == "" || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %q: repeated, or lacks a unit or direction", d.Name)
		}
		seen[d.Name] = true
	}
	// Every workload's own list carries the contract's metrics, in its units,
	// and gives each of its metrics a bound within the contract's cap.
	for _, w := range workloads {
		own := map[string]metricDef{}
		for _, d := range w.metrics {
			if _, twice := own[d.Name]; twice || d.Unit == "" || !(d.Bound > 0 && d.Bound <= 0.25) {
				t.Errorf("%s: metric %q repeated, or lacks a unit or a bound in (0, 0.25]", w.Name, d.Name)
			}
			own[d.Name] = d
		}
		for _, c := range contractMetrics {
			if d, ok := own[c.Name]; !ok || d.Unit != c.Unit || d.Better != c.Better {
				t.Errorf("%s: contract metric %s missing from its list, or declared differently", w.Name, c.Name)
			}
		}
	}
}

// TestEveryWorkloadAtToySize runs each workload once, untraced, and checks
// that the contract line carries exactly BENCHMARK.json's end-to-end metrics
// and the result every metric of the workload's own list, none of them 0.
func TestEveryWorkloadAtToySize(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		res, err := runWorkload(w, toyEnv(t), 0.01, false, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct %v, failed %d: %v", w.Name, res.Correct, res.Failed, res.Problems)
		}
		got := parseContractLine(t, res)
		if len(got) != len(contractMetrics) {
			t.Errorf("%s: %d metrics in the contract line, want %d", w.Name, len(got), len(contractMetrics))
		}
		for _, d := range contractMetrics {
			if m, ok := got[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.Name, d.Name, m, ok, d.Unit)
			}
		}
		if len(res.EndToEnd) != len(w.metrics) {
			t.Errorf("%s: %d end-to-end metrics in the result, want %d", w.Name, len(res.EndToEnd), len(w.metrics))
		}
		for _, d := range w.metrics {
			// Nothing queues at toy size, so the virtual-time waits are 0.
			if v, ok := res.EndToEnd[d.Name]; !ok || !(v > 0 || d.Exact) {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), want a positive value", w.Name, d.Name, v, ok)
			}
		}
	}
}

// TestTracedRunCarriesEveryLayerMetric runs one workload traced, ladder
// included, and checks the per-layer names against the table.
func TestTracedRunCarriesEveryLayerMetric(t *testing.T) {
	w := &workloads[4] // sim-rebalance: exercises the planner wrapper
	env := toyEnv(t)
	res, err := runWorkload(w, env, 0.02, true, 123)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run incorrect: %v", res.Problems)
	}
	got := parseContractLine(t, res)
	if len(got) != len(perLayerMetricDefs) {
		t.Errorf("%d metrics in the traced contract line, want %d", len(got), len(perLayerMetricDefs))
	}
	for _, d := range perLayerMetricDefs {
		// Every timing comes from the ladder, whatever the workload: a
		// time that reads 0 on the workloads that bypass its layer would be
		// a constant, not a measurement.
		switch d.Unit {
		case "ns", "us", "ms", "MB/s":
			if res.PerLayer[d.Name] == 0 {
				t.Errorf("per-layer timing %s was never measured", d.Name)
			}
		}
		if got[d.Name].Unit != d.Unit {
			t.Errorf("per-layer metric %s printed in %q, want %q", d.Name, got[d.Name].Unit, d.Unit)
		}
	}
	if res.PerLayer["rebalance.ticks"] == 0 || res.PerLayer["rebalance.plan_share_pct"] == 0 {
		t.Error("traced sim-rebalance saw no planner ticks: the wrapper hid Planner")
	}
	if _, err := os.Stat(filepath.Join(env.outDir, "trace-"+w.Name+".json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}

// TestTracedArbiterKeepsOptionalInterfaces: Core finds Planner and
// StartPicker by type assertion, so the wrapper must expose exactly what the
// wrapped arbiter has.
func TestTracedArbiterKeepsOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	cases := []struct {
		name        string
		arb         scheduler.Arbiter
		plans, pick bool
	}{
		{"benefit", &arbiter.BenefitRanked{}, false, false},
		{"fairshare", fairshare.New(nil), false, true},
		{"rebalance", rebalance.New(nil), true, false},
	}
	for _, c := range cases {
		wrapped := tr.traceArbiter(c.arb)
		_, plans := wrapped.(scheduler.Planner)
		_, picks := wrapped.(scheduler.StartPicker)
		if plans != c.plans || picks != c.pick {
			t.Errorf("%s: wrapper has Planner %v StartPicker %v, inner has %v %v", c.name, plans, picks, c.plans, c.pick)
		}
		if wrapped.Name() != c.arb.Name() {
			t.Errorf("%s: wrapper renamed the arbiter to %q", c.name, wrapped.Name())
		}
	}
}

// TestCompare: identical files pass; a 20 % drop in throughput is flagged on
// jobs_per_s itself where the bound is 15 %, and so are four more allocations
// per job on a workload where the seed fixes them; a drop within the bound
// passes; runs that disagree among themselves by more than the bound are
// unresolved rather than ok; a virtual-time outcome that moved at all is
// reported; seed-to-seed differences that both files share cancel.
func TestCompare(t *testing.T) {
	mk := func(workload string, allocs, makespan float64, jobs ...float64) []*runResult {
		var runs []*runResult
		for i, j := range jobs {
			e := map[string]float64{"makespan_s": makespan + float64(i), "queue_wait_p99_s": 1000}
			for _, d := range workloadNamed(workload).metrics {
				if !d.Exact {
					e[d.Name] = 0.5
				}
			}
			// Allocations follow the seed's mix, by far more than their bound.
			e["jobs_per_s"], e["allocs_per_job"] = j, allocs*(1+0.1*float64(i))
			runs = append(runs, &runResult{Workload: workload, Seed: int64(i), JobsPerRound: 100000, Correct: true, EndToEnd: e})
		}
		return runs
	}
	rows := func(out string, verdict string) (metrics []string) {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[len(f)-1] == verdict {
				metrics = append(metrics, f[1])
			}
		}
		return metrics
	}
	cases := []struct {
		name      string
		workload  string
		candidate []float64 // allocs, makespan, jobs...
		exit      int
		verdict   string
		metrics   string // the rows carrying that verdict
	}{
		{"identical", "sim-fcfs", []float64{23, 5000, 100, 101, 99, 100, 102}, 0, "ok", "setup_s jobs_per_s allocs_per_job makespan_s queue_wait_p99_s"},
		{"20% slower, bound 15%", "ctl-volatile", []float64{23, 5000, 80, 81, 79, 80, 82}, 1, "regressed", "jobs_per_s"},
		{"20% slower, bound 20%", "sim-fcfs", []float64{23, 5000, 80, 81, 79, 80, 82}, 0, "regressed", ""},
		{"25% slower", "sim-fcfs", []float64{23, 5000, 75, 76, 74, 75, 77}, 1, "regressed", "jobs_per_s"},
		{"23 -> 27 allocs", "sim-fcfs", []float64{27, 5000, 100, 101, 99, 100, 102}, 1, "regressed", "allocs_per_job"},
		{"wide spread", "sim-fcfs", []float64{23, 5000, 70, 130, 95, 100, 160}, 0, "unresolved", "jobs_per_s"},
		{"makespan up 1%", "sim-fcfs", []float64{23, 5050, 100, 101, 99, 100, 102}, 1, "regressed", "makespan_s"},
		{"makespan down a second", "sim-fcfs", []float64{23, 4999, 100, 101, 99, 100, 102}, 0, "changed", "makespan_s"},
	}
	for _, c := range cases {
		base := mk(c.workload, 23, 5000, 100, 101, 99, 100, 102)
		var out bytes.Buffer
		code := compareRunSets(&out, base, mk(c.workload, c.candidate[0], c.candidate[1], c.candidate[2:]...))
		if got := strings.Join(rows(out.String(), c.verdict), " "); code != c.exit || got != c.metrics {
			t.Errorf("%s: exit %d, %s rows %q; want %d, %q\n%s", c.name, code, c.verdict, got, c.exit, c.metrics, out.String())
		}
	}
	var out bytes.Buffer
	base, other := mk("sim-fcfs", 23, 5000, 100, 101), mk("sim-fcfs", 23, 5000, 100, 101)
	other[0].JobsPerRound = 2000
	if code := compareRunSets(&out, base, other); code != 1 || !strings.Contains(out.String(), "different sizes") {
		t.Errorf("different sizes: exit %d\n%s", code, out.String())
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
