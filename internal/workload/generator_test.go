package workload

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/simcluster"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Seed: 42, Jobs: 12, MeanInterarrival: 200, MaxProcs: 36}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 12 || len(b) != 12 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].Spec.Name != b[i].Spec.Name || a[i].Arrival != b[i].Arrival {
			t.Fatalf("job %d differs between runs", i)
		}
	}
}

func TestGenerateArrivalsMonotone(t *testing.T) {
	jobs, err := Generate(GenConfig{Seed: 7, Jobs: 20, MeanInterarrival: 100, MaxProcs: 36})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i].Arrival < jobs[i-1].Arrival {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	for _, j := range jobs {
		if len(j.Spec.Chain) == 0 {
			t.Fatalf("%s: empty chain", j.Spec.Name)
		}
		if j.Spec.InitialTopo.Count() > 36 {
			t.Fatalf("%s: initial %v too large", j.Spec.Name, j.Spec.InitialTopo)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{Jobs: 0}); err == nil {
		t.Fatal("zero jobs accepted")
	}
	if _, err := Generate(GenConfig{Tenants: []TenantSpec{{Jobs: 3, MeanInterarrival: 10}}}); err == nil {
		t.Fatal("unnamed tenant accepted")
	}
	if _, err := Generate(GenConfig{Tenants: []TenantSpec{{Name: "a"}}}); err == nil {
		t.Fatal("tenant with no job count or interarrival accepted")
	}
}

// TestGenerateMultiTenantDeterministic: the same seed must reproduce the
// merged multi-tenant mix byte for byte across every arrival pattern —
// names, tenants, priorities and arrival instants.
func TestGenerateMultiTenantDeterministic(t *testing.T) {
	cfg := GenConfig{
		Seed: 42, MaxProcs: 36, PriorityLevels: 3,
		Tenants: []TenantSpec{
			{Name: "steady", Jobs: 30, MeanInterarrival: 100},
			{Name: "bursty", Jobs: 30, MeanInterarrival: 100, Pattern: Bursty, Burst: 6, BurstFactor: 20},
			{Name: "diurnal", Jobs: 30, MeanInterarrival: 100, Pattern: Diurnal, Period: 3600, Amplitude: 0.9},
		},
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 90 || len(b) != 90 {
		t.Fatalf("lengths %d/%d, want 90", len(a), len(b))
	}
	counts := map[string]int{}
	for i := range a {
		x, y := a[i], b[i]
		if x.Spec.Name != y.Spec.Name || x.Spec.Tenant != y.Spec.Tenant ||
			x.Spec.Priority != y.Spec.Priority || x.Arrival != y.Arrival {
			t.Fatalf("job %d differs between identical runs: %+v vs %+v", i, x.Spec, y.Spec)
		}
		if i > 0 && a[i].Arrival < a[i-1].Arrival {
			t.Fatalf("merged arrivals not monotone at %d", i)
		}
		counts[x.Spec.Tenant]++
	}
	for _, tenant := range []string{"steady", "bursty", "diurnal"} {
		if counts[tenant] != 30 {
			t.Fatalf("tenant %q has %d jobs, want 30", tenant, counts[tenant])
		}
	}
}

// TestGenerateBurstyClumps: the bursty pattern must actually clump — the
// median intra-burst gap sits well below the long inter-burst gaps.
func TestGenerateBurstyClumps(t *testing.T) {
	jobs, err := Generate(GenConfig{Seed: 7, MaxProcs: 36, Tenants: []TenantSpec{
		{Name: "n", Jobs: 60, MeanInterarrival: 100, Pattern: Bursty, Burst: 6, BurstFactor: 20},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var intra, inter []float64
	for i := 1; i < len(jobs); i++ {
		gap := jobs[i].Arrival - jobs[i-1].Arrival
		if i%6 == 0 {
			inter = append(inter, gap)
		} else {
			intra = append(intra, gap)
		}
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(intra)*10 > mean(inter) {
		t.Fatalf("bursts not clumped: intra mean %.1f vs inter mean %.1f", mean(intra), mean(inter))
	}
}

// TestGenerateMultiTenantRunsAndRollsUp: a three-tenant mix drives the
// simulator end to end and the per-tenant result metrics see every tenant.
func TestGenerateMultiTenantRunsAndRollsUp(t *testing.T) {
	jobs, err := Generate(GenConfig{Seed: 3, MaxProcs: 36, Tenants: []TenantSpec{
		{Name: "a", Jobs: 5, MeanInterarrival: 300},
		{Name: "b", Jobs: 5, MeanInterarrival: 300, Pattern: Bursty},
		{Name: "c", Jobs: 5, MeanInterarrival: 300, Pattern: Diurnal},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simcluster.New(36, simcluster.Dynamic, perfmodel.SystemX(), jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	jobsOf := map[string]int{}
	for _, j := range res.Jobs {
		jobsOf[j.Tenant]++
	}
	if len(jobsOf) != 3 || jobsOf["a"] != 5 || jobsOf["b"] != 5 || jobsOf["c"] != 5 {
		t.Fatalf("result tenants %v, want five jobs each of a, b and c", jobsOf)
	}
	for _, tenant := range []string{"a", "b", "c"} {
		if res.TenantQueueWaitP99(tenant) < res.TenantMeanQueueWait(tenant) &&
			res.TenantMeanQueueWait(tenant) > 0 {
			t.Fatalf("tenant %q: p99 %.1f below mean %.1f", tenant,
				res.TenantQueueWaitP99(tenant), res.TenantMeanQueueWait(tenant))
		}
	}
}

func TestGeneratedMixRunsUnderBothModes(t *testing.T) {
	jobs, err := Generate(GenConfig{Seed: 3, Jobs: 10, MeanInterarrival: 300, MaxProcs: 36})
	if err != nil {
		t.Fatal(err)
	}
	p := perfmodel.SystemX()
	for _, mode := range []simcluster.Mode{simcluster.Static, simcluster.Dynamic} {
		res, err := simcluster.New(36, mode, p, jobs).Run()
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(res.Jobs) != 10 {
			t.Fatalf("mode %v: %d jobs finished", mode, len(res.Jobs))
		}
	}
}

func TestLoadSweepShapes(t *testing.T) {
	p := perfmodel.SystemX()
	points, err := LoadSweep(36, p, 10, 11, []float64{100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	for _, pt := range points {
		if pt.DynamicUtil <= 0 || pt.DynamicUtil > 1 {
			t.Errorf("ia=%v: dynamic util %v", pt.MeanInterarrival, pt.DynamicUtil)
		}
		if pt.StaticMeanTurn <= 0 || pt.DynamicMeanTurn <= 0 {
			t.Errorf("ia=%v: non-positive turnarounds", pt.MeanInterarrival)
		}
	}
	// At sparse arrivals (light load) dynamic scheduling must raise
	// utilization: idle processors get absorbed by running jobs.
	light := points[1]
	if light.DynamicUtil <= light.StaticUtil {
		t.Errorf("light load: dynamic util %.3f <= static %.3f",
			light.DynamicUtil, light.StaticUtil)
	}
}

// TestGenerateRejectsCapBelowSmallestLadder: a cap below 4 processors, the
// first rung of the jacobi and fft ladders, is an error. At 1 the mw
// ladder was empty and seed 4 panicked; at 3 jobs started on 4
// processors, above the cap.
func TestGenerateRejectsCapBelowSmallestLadder(t *testing.T) {
	for _, c := range []struct {
		seed     int64
		maxProcs int
	}{{4, 1}, {1, 3}} {
		jobs, err := Generate(GenConfig{Seed: c.seed, Jobs: 200, MeanInterarrival: 10, MaxProcs: c.maxProcs})
		if err == nil {
			t.Fatalf("MaxProcs %d accepted (%d jobs)", c.maxProcs, len(jobs))
		}
		if _, err := Generate(GenConfig{Seed: c.seed, MaxProcs: c.maxProcs,
			Tenants: []TenantSpec{{Name: "a", Jobs: 10, MeanInterarrival: 10}}}); err == nil {
			t.Fatalf("MaxProcs %d accepted for a tenant mix", c.maxProcs)
		}
	}
	jobs, err := Generate(GenConfig{Seed: 1, Jobs: 200, MeanInterarrival: 10, MaxProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if last := j.Spec.Chain[len(j.Spec.Chain)-1]; j.Spec.InitialTopo.Count() > 4 || last.Count() > 4 {
			t.Fatalf("%s: chain %v exceeds the cap of 4", j.Spec.Name, j.Spec.Chain)
		}
	}
}

// TestGenerateAllocsPerJob: generating a mix costs one allocation per job,
// its name; chains, ladders and the job slice are paid once per call.
func TestGenerateAllocsPerJob(t *testing.T) {
	const n = 10_000
	cfg := GenConfig{Seed: 1, Jobs: n, MeanInterarrival: 2, MaxProcs: 64}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perJob := allocs / n; perJob > 1.1 {
		t.Fatalf("Generate makes %.2f allocs/job, want <= 1.1", perJob)
	}
}

// TestGenerateSharesChainsPerShape: jobs of one shape share one Chain
// slice, and every chain has len == cap, so an append by any consumer
// reallocates instead of writing into another job's chain.
func TestGenerateSharesChainsPerShape(t *testing.T) {
	jobs, err := Generate(GenConfig{Seed: 2, Jobs: 500, MeanInterarrival: 5, MaxProcs: 64})
	if err != nil {
		t.Fatal(err)
	}
	type shape struct {
		app string
		n   int
	}
	first := map[shape][]grid.Topology{}
	for _, j := range jobs {
		c := j.Spec.Chain
		if len(c) != cap(c) {
			t.Fatalf("%s: chain len %d, cap %d", j.Spec.Name, len(c), cap(c))
		}
		// LU and MM of one size share their chain too.
		k := shape{j.Spec.App, j.Spec.ProblemSize}
		if k.app == "mm" {
			k.app = "lu"
		}
		if f, ok := first[k]; !ok {
			first[k] = c
		} else if &f[0] != &c[0] {
			t.Fatalf("%s: chain not shared with the first %v job of its size", j.Spec.Name, k)
		}
	}
	if len(first) != len(luSizePool)+3 {
		t.Fatalf("%d shapes drawn, want %d", len(first), len(luSizePool)+3)
	}
}

// BenchmarkGenerate measures generating the sim-fcfs-shaped 100k-job mix.
func BenchmarkGenerate(b *testing.B) {
	const n = 100_000
	cfg := GenConfig{Seed: 1, Jobs: n, MeanInterarrival: 2, MaxProcs: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
