package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

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

// The 1-D ladders of the generated jacobi and fft jobs, before the cap.
// Their first rung, 4 processors, is the smallest cap Generate accepts.
var (
	jacobiCounts = []int{4, 8, 10, 16, 20, 32}
	fftCounts    = []int{4, 8, 16, 32}
)

// Generate produces a reproducible random mix of the paper's applications
// with exponential interarrival times, for stress-testing the scheduler at
// job counts beyond the published workloads.
func Generate(cfg GenConfig) ([]simcluster.JobInput, error) {
	if cfg.MaxProcs <= 0 {
		cfg.MaxProcs = ClusterProcs
	}
	if smallest := min(jacobiCounts[0], fftCounts[0]); cfg.MaxProcs < smallest {
		return nil, fmt.Errorf("workload: MaxProcs %d is below %d, the smallest jacobi/fft configuration", cfg.MaxProcs, smallest)
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = Iterations
	}
	sh := newShapes(cfg)
	if len(cfg.Tenants) > 0 {
		return generateTenants(cfg, sh)
	}
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("workload: Generate needs at least 1 job")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	arrival := 0.0
	jobs := make([]simcluster.JobInput, 0, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		if i > 0 {
			arrival += rng.ExpFloat64() * cfg.MeanInterarrival
		}
		in, err := sh.draw(rng, i, "")
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

// shapes memoizes, for one Generate call, everything a job's shape
// depends on besides its draws: the growth chain of each LU/MM problem
// size from its smallest starting configuration, computed on first draw,
// and the 1-D ladders. Jobs of one shape share one Chain slice, capped
// len == cap, so an append by any consumer reallocates instead of writing
// into another job's chain.
type shapes struct {
	cfg             GenConfig
	lu              [][]grid.Topology // by luSizePool index; nil until drawn
	jacobi, fft, mw []grid.Topology
	name            []byte // scratch for building job names
}

func newShapes(cfg GenConfig) *shapes {
	return &shapes{
		cfg:    cfg,
		lu:     make([][]grid.Topology, len(luSizePool)),
		jacobi: ladder(capCounts(jacobiCounts, cfg.MaxProcs)),
		fft:    ladder(capCounts(fftCounts, cfg.MaxProcs)),
		mw:     ladder(evens(2, min(22, cfg.MaxProcs))),
	}
}

// luChain returns the growth chain of the k-th luSizePool size under the
// cap. Its first rung is the starting configuration: SmallestConfig's
// answer is already normalized.
func (sh *shapes) luChain(k int) ([]grid.Topology, error) {
	if sh.lu[k] == nil {
		n := luSizePool[k]
		start, ok := grid.SmallestConfig(n, 2, sh.cfg.MaxProcs)
		if !ok {
			return nil, fmt.Errorf("workload: no starting config for n=%d", n)
		}
		chain := grid.GrowthChain(start, n, sh.cfg.MaxProcs)
		sh.lu[k] = chain[:len(chain):len(chain)]
	}
	return sh.lu[k], nil
}

// jobName returns prefix+app+"-"+i, the bytes fmt's "%s%s-%d" would give.
func (sh *shapes) jobName(prefix, app string, i int) string {
	b := append(sh.name[:0], prefix...)
	b = append(b, app...)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(i), 10)
	sh.name = b
	return string(b)
}

// draw rolls one job body from the paper's application mix. The draw
// sequence (one Intn(5), then the chosen case's own draws, then the
// optional priority roll in the caller) is shared by the single- and
// multi-tenant paths, so pre-existing single-tenant seeds replay byte for
// byte.
func (sh *shapes) draw(rng *rand.Rand, i int, prefix string) (simcluster.JobInput, error) {
	var in simcluster.JobInput
	switch rng.Intn(5) {
	case 0, 1: // LU and MM dominate large clusters
		k := rng.Intn(len(luSizePool))
		app := "lu"
		if rng.Intn(2) == 1 {
			app = "mm"
		}
		chain, err := sh.luChain(k)
		if err != nil {
			return simcluster.JobInput{}, err
		}
		n := luSizePool[k]
		in = simcluster.JobInput{
			Spec: scheduler.JobSpec{
				Name: sh.jobName(prefix, app, i), App: app, ProblemSize: n,
				InitialTopo: chain[0],
				Chain:       chain,
			},
			Model: perfmodel.AppModel{App: app, N: n},
		}
	case 2:
		in = job1D(sh.jobName(prefix, "jacobi", i), "jacobi", 8000, sh.jacobi, 0,
			perfmodel.AppModel{App: "jacobi", N: 8000})
	case 3:
		in = job1D(sh.jobName(prefix, "fft", i), "fft", 8192, sh.fft, 0,
			perfmodel.AppModel{App: "fft", N: 8192})
	default:
		work := 10 + rng.Float64()*100
		in = job1D(sh.jobName(prefix, "mw", i), "mw", 20000, sh.mw, 0,
			perfmodel.AppModel{App: "mw", MWWorkSeconds: work})
	}
	in.Spec.Iterations = sh.cfg.Iterations
	return in, nil
}

// tenantJobs is a tenant's job count, falling back to GenConfig.Jobs.
func tenantJobs(ts TenantSpec, cfg GenConfig) int {
	if ts.Jobs > 0 {
		return ts.Jobs
	}
	return cfg.Jobs
}

// generateTenants draws one substream per tenant from a per-tenant
// sub-seed and merges them by arrival time. Stable sort keeps ties in
// Tenants order, so the merged mix is a pure function of (Seed, Tenants).
func generateTenants(cfg GenConfig, sh *shapes) ([]simcluster.JobInput, error) {
	total := 0
	for _, ts := range cfg.Tenants {
		total += max(tenantJobs(ts, cfg), 0)
	}
	jobs := make([]simcluster.JobInput, 0, total)
	for ti, ts := range cfg.Tenants {
		if ts.Name == "" {
			return nil, fmt.Errorf("workload: tenant %d has no name", ti)
		}
		n := tenantJobs(ts, cfg)
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
		prefix := ts.Name + "-"
		arrival := 0.0
		for i := 0; i < n; i++ {
			if i > 0 {
				arrival += ts.gap(rng, i, mean, arrival)
			}
			in, err := sh.draw(rng, i, prefix)
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

// capCounts keeps the counts at or below maxProcs.
func capCounts(counts []int, maxProcs int) []int {
	var out []int
	for _, c := range counts {
		if c <= maxProcs {
			out = append(out, c)
		}
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
		points = append(points, SweepPoint{
			MeanInterarrival: ia,
			StaticUtil:       st.Utilization,
			DynamicUtil:      dy.Utilization,
			StaticMeanTurn:   st.MeanTurnaround(),
			DynamicMeanTurn:  dy.MeanTurnaround(),
		})
	}
	return points, nil
}
