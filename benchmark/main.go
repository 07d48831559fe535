// Command benchmark is the repository's benchmark: six workloads that each
// put a different layer of the ReSHAPE stack to work, end-to-end metrics a
// user of the system would see, and a traced run that says which layer the
// time went to. README.md in this directory describes the workloads, the
// metrics and how the layers should move them.
//
// The contract form, one workload per invocation, from the repository root:
//
//	bash benchmark/run.sh --workload ctl-durable --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Without --workload every workload
// runs in turn; --repeat n runs each n times on seeds seed..seed+n-1 and
// prints the spread; --compare a.json b.json compares two result files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/perfmodel"
)

// runEnv is what every round of one invocation shares.
type runEnv struct {
	seed   int64
	scale  float64 // 1 = the frozen sizes; less in the smoke test and for the ladder's small mixes
	conns  int     // rpc/v2 connections of the control-plane client
	outDir string
	params *perfmodel.Params
}

// scaled shrinks a frozen size for toy runs, never below floor.
func (e *runEnv) scaled(n, floor int) int {
	v := int(float64(n) * e.scale)
	if v < floor {
		v = floor
	}
	return v
}

// round is what one set-up + measurement of a workload produced.
type round struct {
	setupS, measureS  float64
	jobs              int
	attempted, failed int
	mallocs           uint64
	samples           map[string][]float64 // timings in ms, pooled over rounds
	vals              map[string]float64   // per-round figures, median over rounds
	layer             map[string]float64   // counters, summed over rounds
	layerMax          map[string]float64   // high-water marks, max over rounds
	problems          []string             // output checks that failed
}

func newRound() *round {
	return &round{
		samples:  make(map[string][]float64),
		vals:     make(map[string]float64),
		layer:    make(map[string]float64),
		layerMax: make(map[string]float64),
	}
}

func (r *round) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *round) maxLayer(name string, v float64) {
	if v > r.layerMax[name] {
		r.layerMax[name] = v
	}
}

// runResult is one invocation's outcome for one workload.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Rounds   int     `json:"rounds"`
	// JobsPerRound is the frozen size the run worked at: --compare refuses
	// two files that disagree on it.
	JobsPerRound int      `json:"jobs_per_round"`
	Correct      bool     `json:"correct"`
	Problems     []string `json:"problems,omitempty"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	// EndToEnd holds the workload's end-to-end metrics (workloadDef.metrics),
	// Detail every other figure of the untraced rounds.
	EndToEnd map[string]float64 `json:"end_to_end"`
	Detail   map[string]float64 `json:"detail,omitempty"`
	Samples  map[string]int     `json:"samples,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	// RoundJobsPerS lists every round's throughput, so a reader sees how
	// much the rounds of one run differ before trusting their median.
	RoundJobsPerS []float64 `json:"round_jobs_per_s"`
}

// agg pools rounds into a result.
type agg struct {
	rounds    []*round
	attempted int
	failed    int
	problems  []string
}

func (a *agg) add(r *round) {
	a.rounds = append(a.rounds, r)
	a.attempted += r.attempted
	a.failed += r.failed
	a.problems = append(a.problems, r.problems...)
}

func (a *agg) perRound(f func(*round) float64) []float64 {
	xs := make([]float64, len(a.rounds))
	for i, r := range a.rounds {
		xs[i] = f(r)
	}
	return xs
}

func (a *agg) layerSum(name string) float64 {
	s := 0.0
	for _, r := range a.rounds {
		s += r.layer[name]
	}
	return s
}

func (a *agg) layerMax(name string) float64 {
	m := 0.0
	for _, r := range a.rounds {
		if r.layerMax[name] > m {
			m = r.layerMax[name]
		}
	}
	return m
}

func (a *agg) measuredS() float64 {
	return sum(a.perRound(func(r *round) float64 { return r.measureS }))
}

func (r *round) jobsPerS() float64 { return float64(r.jobs) / r.measureS }

// figures derives every figure of the pooled rounds, with the sample count
// behind each pooled timing: the three every workload has, medians of the
// per-round values, and the median, 90th and 99th percentile of each timing
// over all rounds (a 99th percentile stands on 1000 samples or more at the
// frozen sizes; the count is printed beside it).
func (a *agg) figures() (map[string]float64, map[string]int) {
	out := map[string]float64{
		"setup_s":    median(a.perRound(func(r *round) float64 { return r.setupS })),
		"jobs_per_s": median(a.perRound((*round).jobsPerS)),
		"allocs_per_job": median(a.perRound(func(r *round) float64 {
			return float64(r.mallocs) / float64(r.jobs)
		})),
	}
	vals := map[string][]float64{}
	timings := map[string][]float64{}
	for _, r := range a.rounds {
		for k, v := range r.vals {
			vals[k] = append(vals[k], v)
		}
		for k, xs := range r.samples {
			timings[k] = append(timings[k], xs...)
		}
	}
	for k, xs := range vals {
		out[k] = median(xs)
	}
	// Events the watch subscriber lost (a failed check on ctl-durable, a
	// count on ctl-volatile) are shown in every ctl-* result, 0 included.
	for _, r := range a.rounds {
		if v, ok := r.layer["scheduler.watch_lost"]; ok {
			out["watch_lost"] += v
		}
	}
	counts := map[string]int{"rounds": len(a.rounds)}
	for k, xs := range timings {
		base := strings.TrimSuffix(k, "_ms")
		counts[k] = len(xs)
		out[base+"_p50_ms"] = percentile(xs, 0.50)
		out[base+"_p90_ms"] = percentile(xs, 0.90)
		out[base+"_p99_ms"] = percentile(xs, 0.99)
	}
	return out, counts
}

// runRounds repeats a workload's round until the time is used up. Every
// round works on the inputs the seed generates, so figures a count can stand
// for (virtual-time outcomes, allocations) repeat from round to round.
func runRounds(w *workloadDef, env *runEnv, seconds float64, tr *tracer) (*agg, error) {
	a := &agg{}
	start := time.Now()
	// A further round starts only while at least half of it fits the time.
	for n := 0.0; n == 0 || time.Since(start).Seconds()*(1+0.5/n) < seconds; n++ {
		runtime.GC()
		r, err := w.round(env, tr)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.Name, len(a.rounds), err)
		}
		a.add(r)
	}
	if w.across != nil {
		a.problems = append(a.problems, w.across(a.rounds)...)
	}
	return a, nil
}

// runWorkload makes one run. An untraced run spends all of seconds on
// untraced rounds. A traced run first walks the ladder, then splits what is
// left evenly between untraced rounds, which give the end-to-end figures and
// the base of the tracing overhead, and rounds with spans recorded.
func runWorkload(w *workloadDef, env *runEnv, seconds float64, traced bool, fsyncProbeUS float64) (*runResult, error) {
	res := &runResult{Workload: w.Name, Seed: env.seed, Seconds: seconds, Traced: traced}
	budget := seconds
	var rungs map[string]float64
	if traced {
		t0 := time.Now()
		var err error
		if rungs, err = ladder(env); err != nil {
			return nil, err
		}
		budget = (seconds - time.Since(t0).Seconds()) / 2
	}
	plain, err := runRounds(w, env, budget, nil)
	if err != nil {
		return nil, err
	}
	figures, counts := plain.figures()
	res.EndToEnd = make(map[string]float64, len(w.metrics))
	for _, d := range w.metrics {
		res.EndToEnd[d.Name] = figures[d.Name]
		delete(figures, d.Name)
	}
	res.Detail, res.Samples = figures, counts
	res.Rounds = len(plain.rounds)
	res.JobsPerRound = plain.rounds[0].jobs
	res.RoundJobsPerS = plain.perRound((*round).jobsPerS)
	res.Attempted, res.Failed = plain.attempted, plain.failed
	res.Problems = plain.problems
	if traced {
		tr := newTracer()
		withSpans, err := runRounds(w, env, budget, tr)
		if err != nil {
			return nil, err
		}
		res.Attempted += withSpans.attempted
		res.Failed += withSpans.failed
		res.Problems = append(res.Problems, withSpans.problems...)
		if w.across != nil {
			// Recording spans must not change what the program does.
			res.Problems = append(res.Problems, w.across([]*round{plain.rounds[0], withSpans.rounds[0]})...)
		}
		res.PerLayer, err = perLayerMetrics(w, env, rungs, fsyncProbeUS, plain, withSpans, tr)
		if err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(env.outDir, "trace-"+w.Name+".json")); err != nil {
			return nil, err
		}
	}
	if res.Failed > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d of %d operations failed", res.Failed, res.Attempted))
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// contractLine is the last line of output the driver parses: BENCHMARK.json's
// end_to_end metrics of an untraced run, its per_layer metrics of a traced one.
func contractLine(res *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := contractMetrics, res.EndToEnd
	if res.Traced {
		defs, vals = perLayerMetricDefs, res.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

func printResult(res *runResult) {
	fmt.Printf("## %s  seed %d  %d round(s) of %d jobs  attempted %d  failed %d  correct %v\n",
		res.Workload, res.Seed, res.Rounds, res.JobsPerRound, res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Printf("   CHECK FAILED: %s\n", p)
	}
	fmt.Printf("   jobs_per_s by round:")
	for _, v := range res.RoundJobsPerS {
		fmt.Printf(" %.5g", v)
	}
	fmt.Println()
	for _, d := range workloadNamed(res.Workload).metrics {
		bound := fmt.Sprintf("bound %.3g%%", 100*d.Bound)
		if d.Exact {
			bound = "virtual time: repeats exactly"
		}
		fmt.Printf("   %-34s %14.6g %-6s (%s is better, %s)\n", d.Name, res.EndToEnd[d.Name], d.Unit, d.Better, bound)
	}
	for _, k := range slices.Sorted(maps.Keys(res.Detail)) {
		fmt.Printf("   %-34s %14.6g        (detail)\n", k, res.Detail[k])
	}
	for _, k := range slices.Sorted(maps.Keys(res.Samples)) {
		fmt.Printf("   samples %-26s %14d\n", k, res.Samples[k])
	}
	if res.Traced {
		for _, d := range perLayerMetricDefs {
			fmt.Printf("   %-34s %14.6g %-6s (%s is better)\n", d.Name, res.PerLayer[d.Name], d.Unit, d.Better)
		}
	}
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", float64(runSeconds), "how long one run measures")
	trace := flag.Int("trace", 0, "1 also runs the workload traced and prints the per-layer metrics")
	repeat := flag.Int("repeat", 1, "runs per workload, on seeds seed..seed+repeat-1")
	out := flag.String("out", "", "result file (default benchmark/out/results.json)")
	compare := flag.Bool("compare", false, "compare two result files: --compare a.json b.json")
	emitSpec := flag.Bool("emit-spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *emitSpec {
		fmt.Println(benchmarkSpec())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fail(2, "--compare needs two result files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fail(2, "unexpected argument %q", flag.Arg(0))
	}
	var todo []*workloadDef
	for i := range workloads {
		if *name == "all" || *name == workloads[i].Name {
			todo = append(todo, &workloads[i])
		}
	}
	if len(todo) == 0 {
		fail(2, "unknown workload %q", *name)
	}
	if *seconds <= 0 || *repeat < 1 {
		fail(2, "--seconds and --repeat must be positive")
	}
	// The benchmark writes only below benchmark/out of the checkout it runs in.
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err != nil {
		fail(2, "run from the repository root: %v", err)
	}
	outDir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(1, "%v", err)
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)

	environment, err := probeEnv(outDir, procs)
	if err != nil {
		fail(1, "%v", err)
	}
	file := resultFile{Env: environment}
	ok := true
	var last *runResult
	for _, w := range todo {
		for i := 0; i < *repeat; i++ {
			env := &runEnv{
				seed: *seed + int64(i), scale: 1, conns: procs,
				outDir: outDir, params: perfmodel.SystemX(),
			}
			// A traced run appends with an fsync per op too, in the ladder.
			if (w.needsDisk || *trace == 1) && environment.WALFilesystem == "tmpfs" {
				fail(1, "%s fsyncs: it needs a real filesystem under %s, found tmpfs", w.Name, outDir)
			}
			res, err := runWorkload(w, env, *seconds, *trace == 1, environment.FsyncProbeUS)
			if err != nil {
				fail(1, "%v", err)
			}
			printResult(res)
			file.Runs = append(file.Runs, res)
			ok = ok && res.Correct
			last = res
		}
	}
	if *repeat > 1 {
		printSpreads(os.Stdout, file.Runs)
	}
	path := *out
	if path == "" {
		path = filepath.Join(outDir, "results.json")
	}
	if err := file.write(path); err != nil {
		fail(1, "%v", err)
	}
	fmt.Println(contractLine(last))
	if !ok {
		os.Exit(1)
	}
}
