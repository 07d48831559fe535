package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: long enough for four or more
// rounds of every workload on two cores.
const runSeconds = 15

// metricDef declares one metric: BENCHMARK.json is printed from these
// tables (--emit-spec), so the program and the file cannot disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound (end-to-end only) is the share of the base's median by which the
	// metric may worsen before it counts as regressed.
	Bound float64
	// Exact marks a virtual-time outcome: a pure function of the seed, so two
	// result files must agree on it to the last bit, seed by seed.
	Exact bool
}

// contractMetrics are BENCHMARK.json's end_to_end: the driver wants every
// one of them from every workload, so they are the three figures every
// workload measures independently of the others:
//
//   - jobs_per_s: jobs completed per wall second (ctl-*: over the wire,
//     submit to job-end; sim-*: simulated jobs per host second; app-resize:
//     application runs, tours included, 6 / time-to-solution).
//   - allocs_per_job: heap allocations (runtime.MemStats.Mallocs) per job
//     over the measured part, load generator included.
//   - setup_s: generate the mix, open the store, serve, dial, subscribe and
//     warm up (ctl-*); generate the mix and build the core (sim-*); launch the
//     ranks, register and fill the arrays (app-resize).
//
// Their bounds gate single runs on different seeds (the driver's procedure).
// Ten such runs of one workload spread by up to 11 % in jobs_per_s when the
// box is busy (2 to 6 % when it is quiet) and, on sim-rebalance, by 6 % in
// allocs_per_job, which there follows the mix. The per-workload lists below
// are what --compare reads: medians over two files' runs on the same seeds,
// so a figure the seed fixes is held much tighter there.
var contractMetrics = []metricDef{
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_job", Unit: "count", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

func lower(name, unit string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Bound: bound}
}

func higher(name, unit string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "higher", Bound: bound}
}

// exact is a virtual-time outcome in simulated seconds.
func exact(name string) metricDef {
	return metricDef{Name: name, Unit: "s", Better: "lower", Bound: 0.001, Exact: true}
}

// ctlMetrics: client-side latencies of the two calls a job's ranks stall on,
// as a median and a 99th percentile over every sampled call of the run.
func ctlMetrics(durable bool) []metricDef {
	ms := []metricDef{
		lower("setup_s", "s", 0.25),
		higher("jobs_per_s", "1/s", 0.15),
		lower("allocs_per_job", "count", 0.05),
		lower("submit_ack_p50_ms", "ms", 0.20),
		lower("submit_ack_p99_ms", "ms", 0.25),
		lower("contact_p50_ms", "ms", 0.20),
		lower("contact_p99_ms", "ms", 0.25),
	}
	if durable {
		// Median of ten durability.Open + Restore of the round's directory.
		ms = append(ms, lower("recover_ms", "ms", 0.25))
	}
	return ms
}

// simMetrics: host speed, which on this box drifts by up to 13 % within a
// quarter of an hour whatever the code; allocations, which the seed fixes to
// a fraction of a per cent; and the virtual-time outcomes, which it fixes
// exactly.
var simMetrics = []metricDef{
	lower("setup_s", "s", 0.25),
	higher("jobs_per_s", "1/s", 0.20),
	lower("allocs_per_job", "count", 0.02),
	exact("makespan_s"),
	exact("queue_wait_p99_s"),
}

// appMetrics: resizes as the SDK reports them (EventResize.Seconds), split
// by direction so a gain for one that costs the other shows. jobs_per_s is
// 6 / time_to_solution_s, which is printed as detail and not compared twice.
var appMetrics = []metricDef{
	lower("setup_s", "s", 0.25),
	higher("jobs_per_s", "1/s", 0.15),
	lower("allocs_per_job", "count", 0.02),
	lower("expand_p50_ms", "ms", 0.25),
	lower("shrink_p50_ms", "ms", 0.25),
	lower("resize_p99_ms", "ms", 0.25),
	higher("redist_mb_per_s", "MB/s", 0.25),
}

// workloadDef is one workload: its name and reason are final (later issues
// cite them), its sizes are frozen in the round functions.
type workloadDef struct {
	Name string
	Why  string
	// metrics are the workload's end-to-end metrics: the contract's three and
	// the ones only this kind of workload has.
	metrics []metricDef
	// needsDisk marks the workload that fsyncs: it refuses tmpfs.
	needsDisk bool
	round     func(env *runEnv, tr *tracer) (*round, error)
	// across, when set, checks what must hold between rounds.
	across func(rounds []*round) []string
}

var workloads = []workloadDef{
	{
		Name:      "ctl-durable",
		Why:       "rpc/v2 -> server lock -> WAL fsync per op -> core, reshaped -wal-dir defaults: the only workload where durability does most of the work; recovery reads the bytes the run wrote",
		metrics:   ctlMetrics(true),
		needsDisk: true,
		round:     func(env *runEnv, tr *tracer) (*round, error) { return ctlRound(env, true, tr) },
	},
	{
		Name:    "ctl-volatile",
		Why:     "same ops, drivers and reads with no journal: bypasses durability, so the rpc codec, the reshape client, the server lock and the watch broker dominate; a WAL change must not move it",
		metrics: ctlMetrics(false),
		round:   func(env *runEnv, tr *tracer) (*round, error) { return ctlRound(env, false, tr) },
	},
	{
		Name:    "sim-fcfs",
		Why:     "virtual-time simulator under the published policy on the scaling-curve mix: engine, queue, pool and Core contact path do all the work; arbiters, wire and WAL are bypassed",
		metrics: simMetrics,
		round:   func(env *runEnv, tr *tracer) (*round, error) { return simRound(env, simFCFS, tr) },
		across:  simRepeats,
	},
	{
		Name:    "sim-fairshare",
		Why:     "backlogged three-tenant mix under fairshare over BenefitRanked: arbiter, tenant-indexed queue and StartPicker take most of the wall time; first place an arbiter change shows",
		metrics: simMetrics,
		round:   func(env *runEnv, tr *tracer) (*round, error) { return simRound(env, simFairshare, tr) },
		across:  simRepeats,
	},
	{
		Name:    "sim-rebalance",
		Why:     "same mix under the rebalancer: BenefitRanked used by a periodic whole-cluster planner beside per-contact decisions, so a change that helps one use and hurts the other splits the two rows",
		metrics: simMetrics,
		round:   func(env *runEnv, tr *tracer) (*round, error) { return simRound(env, simRebalance, tr) },
		across:  simRepeats,
	},
	{
		Name:    "app-resize",
		Why:     "real data plane: six apps through reshape.Run on goroutine ranks, resized after every iteration by a scripted scheduler; mpi, redistrib, resize and the SDK do the work, the scheduler is bypassed",
		metrics: appMetrics,
		round:   appRound,
	},
}

func workloadNamed(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// benchmarkSpec renders BENCHMARK.json from the tables above.
func benchmarkSpec() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range contractMetrics {
		spec.EndToEnd = append(spec.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerMetricDefs {
		spec.PerLayer = append(spec.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return string(b)
}

// environment is recorded in every result file: it says whether the box,
// not the code, moved.
type environment struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	WALFilesystem string  `json:"wal_filesystem"`
	FsyncProbeUS  float64 `json:"fsync_probe_us"`
	Time          string  `json:"time"`
}

// fsNames maps statfs magic numbers to names for the filesystems a checkout
// is likely to sit on.
var fsNames = map[int64]string{
	0x01021994: "tmpfs", 0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs",
	0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
}

func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// fsyncProbe times 200 fsyncs of a 64-byte append in dir: the disk's floor
// under every durable operation.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	const n = 200
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		times = append(times, us(time.Since(t0)))
	}
	return median(times), nil
}

// commitOf reads the checkout's commit without running git: the driver's
// checkout is not a repository, and then the answer is "unknown".
func commitOf() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", rest))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

func probeEnv(outDir string, procs int) (environment, error) {
	probe, err := fsyncProbe(outDir)
	if err != nil {
		return environment{}, fmt.Errorf("fsync probe in %s: %w", outDir, err)
	}
	return environment{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    procs,
		GoVersion:     runtime.Version(),
		Commit:        commitOf(),
		WALFilesystem: filesystemOf(outDir),
		FsyncProbeUS:  probe,
		Time:          time.Now().UTC().Format(time.RFC3339),
	}, nil
}

// resultFile is what a run leaves in benchmark/out and --compare reads.
// Summary is the file's last key and "claim" its last field: this program
// measures; a change that claims a gain says so in its own words.
type resultFile struct {
	Env     environment  `json:"env"`
	Runs    []*runResult `json:"runs"`
	Summary struct {
		Runs    int  `json:"runs"`
		Correct bool `json:"correct"`
		Claim   any  `json:"claim"`
	} `json:"summary"`
}

func (f *resultFile) write(path string) error {
	f.Summary.Runs = len(f.Runs)
	f.Summary.Correct = true
	for _, r := range f.Runs {
		f.Summary.Correct = f.Summary.Correct && r.Correct
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
