package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
)

// GenConfig parameterizes the synthetic job-mix generator used for the
// load-sweep experiments beyond the paper's two fixed workloads.
type GenConfig struct {
	Seed             int64
	Jobs             int
	MeanInterarrival float64 // seconds between submissions (exponential)
	MaxProcs         int     // configuration chains are capped here
	Iterations       int     // outer iterations per job (default 10)
	// PriorityLevels > 1 assigns each job a uniform random priority in
	// [0, PriorityLevels): higher-priority jobs queue ahead and win
	// arbitration ties. The default (0 or 1) leaves every job at priority
	// 0, preserving the plain-FCFS mixes byte for byte.
	PriorityLevels int
	// Tenants switches the generator into multi-tenant mode: each entry
	// produces an independent substream of jobs tagged with the tenant's
	// name, drawn from a per-tenant sub-seed of Seed, and the substreams
	// are merged by arrival time (ties keep Tenants order). When empty,
	// generation follows the original single-tenant path byte for byte,
	// and Jobs/MeanInterarrival apply; when set, each TenantSpec carries
	// its own counts and Jobs/MeanInterarrival become per-tenant defaults.
	Tenants []TenantSpec
}

// Pattern selects a tenant's arrival process.
type Pattern int

const (
	// Steady is the original Poisson process: exponential interarrival
	// gaps with the tenant's mean.
	Steady Pattern = iota
	// Bursty emits jobs in tight clumps: Burst near-simultaneous arrivals
	// (intra-burst gaps compressed by BurstFactor), then one long gap
	// carrying the whole burst's worth of mean spacing, so the long-run
	// rate matches Steady at the same mean. This is the noisy-neighbor
	// shape: a tenant that is quiet, then demands the cluster all at once.
	Bursty
	// Diurnal modulates the Poisson rate sinusoidally over Period seconds:
	// gaps stretch by (1 + Amplitude·sin) evaluated at the current virtual
	// time, giving the day/night load swing of interactive tenants.
	Diurnal
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Steady:
		return "steady"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	default:
		return "unknown"
	}
}

// TenantSpec describes one tenant's substream in a multi-tenant mix.
type TenantSpec struct {
	Name string
	// Jobs is this tenant's job count (falls back to GenConfig.Jobs).
	Jobs int
	// MeanInterarrival is this tenant's mean spacing in seconds (falls
	// back to GenConfig.MeanInterarrival).
	MeanInterarrival float64
	Pattern          Pattern
	// Burst is the arrivals per clump under Bursty (default 5);
	// BurstFactor divides the intra-burst gaps (default 10).
	Burst       int
	BurstFactor float64
	// Period is the Diurnal cycle length in seconds (default 86400);
	// Amplitude in [0, 1) scales the swing (default 0.8).
	Period    float64
	Amplitude float64
}

// luSizePool are the Table 2 problem sizes the generator draws from.
var luSizePool = []int{8000, 12000, 14000, 16000, 20000, 21000, 24000}

// Generate produces a reproducible random mix of the paper's applications
// with exponential interarrival times, for stress-testing the scheduler at
// job counts beyond the published workloads.
func Generate(cfg GenConfig) ([]simcluster.JobInput, error) {
	if cfg.MaxProcs <= 0 {
		cfg.MaxProcs = ClusterProcs
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = Iterations
	}
	if len(cfg.Tenants) > 0 {
		return generateTenants(cfg)
	}
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("workload: Generate needs at least 1 job")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	arrival := 0.0
	var jobs []simcluster.JobInput
	for i := 0; i < cfg.Jobs; i++ {
		if i > 0 {
			arrival += rng.ExpFloat64() * cfg.MeanInterarrival
		}
		in, err := drawJob(rng, i, "", cfg)
		if err != nil {
			return nil, err
		}
		if cfg.PriorityLevels > 1 {
			in.Spec.Priority = rng.Intn(cfg.PriorityLevels)
		}
		in.Arrival = arrival
		jobs = append(jobs, in)
	}
	return jobs, nil
}

// drawJob rolls one job body from the paper's application mix. The draw
// sequence (one Intn(5), then the chosen case's own draws, then the
// optional priority roll in the caller) is shared by the single- and
// multi-tenant paths, so pre-existing single-tenant seeds replay byte for
// byte.
func drawJob(rng *rand.Rand, i int, prefix string, cfg GenConfig) (simcluster.JobInput, error) {
	switch rng.Intn(5) {
	case 0, 1: // LU and MM dominate large clusters
		n := luSizePool[rng.Intn(len(luSizePool))]
		app := "lu"
		if rng.Intn(2) == 1 {
			app = "mm"
		}
		start, ok := grid.SmallestConfig(n, 2, cfg.MaxProcs)
		if !ok {
			return simcluster.JobInput{}, fmt.Errorf("workload: no starting config for n=%d", n)
		}
		return simcluster.JobInput{
			Spec: scheduler.JobSpec{
				Name: fmt.Sprintf("%s%s-%d", prefix, app, i), App: app, ProblemSize: n,
				Iterations:  cfg.Iterations,
				InitialTopo: start,
				Chain:       grid.GrowthChain(start, n, cfg.MaxProcs),
			},
			Model: perfmodel.AppModel{App: app, N: n},
		}, nil
	case 2:
		return jacobiInput(fmt.Sprintf("%sjacobi-%d", prefix, i), cfg), nil
	case 3:
		return fftInput(fmt.Sprintf("%sfft-%d", prefix, i), cfg), nil
	default:
		work := 10 + rng.Float64()*100
		in := job1D(fmt.Sprintf("%smw-%d", prefix, i), "mw", 20000,
			evens(2, min(22, cfg.MaxProcs)), 0,
			perfmodel.AppModel{App: "mw", MWWorkSeconds: work})
		in.Spec.Iterations = cfg.Iterations
		return in, nil
	}
}

// generateTenants draws one substream per tenant from a per-tenant
// sub-seed and merges them by arrival time. Stable sort keeps ties in
// Tenants order, so the merged mix is a pure function of (Seed, Tenants).
func generateTenants(cfg GenConfig) ([]simcluster.JobInput, error) {
	var jobs []simcluster.JobInput
	for ti, ts := range cfg.Tenants {
		if ts.Name == "" {
			return nil, fmt.Errorf("workload: tenant %d has no name", ti)
		}
		n := ts.Jobs
		if n <= 0 {
			n = cfg.Jobs
		}
		if n <= 0 {
			return nil, fmt.Errorf("workload: tenant %q needs at least 1 job", ts.Name)
		}
		mean := ts.MeanInterarrival
		if mean <= 0 {
			mean = cfg.MeanInterarrival
		}
		if mean <= 0 {
			return nil, fmt.Errorf("workload: tenant %q needs a mean interarrival", ts.Name)
		}
		// Golden-ratio mixing keeps nearby seeds' substreams uncorrelated.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(ti+1)*0x9E3779B9))
		arrival := 0.0
		for i := 0; i < n; i++ {
			if i > 0 {
				arrival += ts.gap(rng, i, mean, arrival)
			}
			in, err := drawJob(rng, i, ts.Name+"-", cfg)
			if err != nil {
				return nil, err
			}
			if cfg.PriorityLevels > 1 {
				in.Spec.Priority = rng.Intn(cfg.PriorityLevels)
			}
			in.Spec.Tenant = ts.Name
			in.Arrival = arrival
			jobs = append(jobs, in)
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	return jobs, nil
}

// gap draws the interarrival gap preceding this tenant's i-th job
// (i >= 1), shaped by the tenant's arrival pattern. now is the previous
// job's arrival, which the diurnal modulation samples.
func (ts TenantSpec) gap(rng *rand.Rand, i int, mean, now float64) float64 {
	switch ts.Pattern {
	case Bursty:
		burst := ts.Burst
		if burst <= 0 {
			burst = 5
		}
		factor := ts.BurstFactor
		if factor <= 0 {
			factor = 10
		}
		if i%burst == 0 {
			// First job of a new clump: one long gap carries the whole
			// clump's worth of mean spacing, keeping the long-run rate at
			// 1/mean.
			return rng.ExpFloat64() * mean * float64(burst)
		}
		return rng.ExpFloat64() * mean / factor
	case Diurnal:
		period := ts.Period
		if period <= 0 {
			period = 86400
		}
		amp := ts.Amplitude
		if amp <= 0 || amp >= 1 {
			amp = 0.8
		}
		return rng.ExpFloat64() * mean * (1 + amp*math.Sin(2*math.Pi*now/period))
	default:
		return rng.ExpFloat64() * mean
	}
}

func jacobiInput(name string, cfg GenConfig) simcluster.JobInput {
	counts := []int{4, 8, 10, 16, 20, 32}
	in := job1D(name, "jacobi", 8000, capCounts(counts, cfg.MaxProcs), 0,
		perfmodel.AppModel{App: "jacobi", N: 8000})
	in.Spec.Iterations = cfg.Iterations
	return in
}

func fftInput(name string, cfg GenConfig) simcluster.JobInput {
	counts := []int{4, 8, 16, 32}
	in := job1D(name, "fft", 8192, capCounts(counts, cfg.MaxProcs), 0,
		perfmodel.AppModel{App: "fft", N: 8192})
	in.Spec.Iterations = cfg.Iterations
	return in
}

func capCounts(counts []int, maxProcs int) []int {
	var out []int
	for _, c := range counts {
		if c <= maxProcs {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []int{counts[0]}
	}
	return out
}

func evens(from, to int) []int {
	var out []int
	for p := from; p <= to; p += 2 {
		out = append(out, p)
	}
	return out
}

// SweepPoint is one load level of a load sweep.
type SweepPoint struct {
	MeanInterarrival float64
	StaticUtil       float64
	DynamicUtil      float64
	StaticMeanTurn   float64
	DynamicMeanTurn  float64
}

// LoadSweep measures static vs dynamic scheduling across arrival-rate
// levels on a generated mix — the "does resizing still help under load?"
// question the paper's workload section motivates.
func LoadSweep(total int, params *perfmodel.Params, jobs, seed int64, interarrivals []float64) ([]SweepPoint, error) {
	var points []SweepPoint
	for _, ia := range interarrivals {
		gen, err := Generate(GenConfig{
			Seed: seed, Jobs: int(jobs), MeanInterarrival: ia, MaxProcs: total,
		})
		if err != nil {
			return nil, err
		}
		st, err := simcluster.New(total, simcluster.Static, params, gen).Run()
		if err != nil {
			return nil, fmt.Errorf("workload: sweep static ia=%.0f: %w", ia, err)
		}
		dy, err := simcluster.New(total, simcluster.Dynamic, params, gen).Run()
		if err != nil {
			return nil, fmt.Errorf("workload: sweep dynamic ia=%.0f: %w", ia, err)
		}
		pt := SweepPoint{
			MeanInterarrival: ia,
			StaticUtil:       st.Utilization,
			DynamicUtil:      dy.Utilization,
		}
		for _, j := range st.Jobs {
			pt.StaticMeanTurn += j.Turnaround()
		}
		for _, j := range dy.Jobs {
			pt.DynamicMeanTurn += j.Turnaround()
		}
		pt.StaticMeanTurn /= float64(len(st.Jobs))
		pt.DynamicMeanTurn /= float64(len(dy.Jobs))
		points = append(points, pt)
	}
	return points, nil
}
