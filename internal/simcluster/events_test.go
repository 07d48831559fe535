package simcluster_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/scheduler/modes"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// tenantMix is the benchmark's backlogged three-tenant mix shape at n jobs
// of iters iterations each.
func tenantMix(n, iters int) workload.GenConfig {
	return workload.GenConfig{
		Seed: 1, MaxProcs: 64, PriorityLevels: 3, Iterations: iters,
		Tenants: []workload.TenantSpec{
			{Name: "bursty", Jobs: n * 6 / 10, MeanInterarrival: 0.5,
				Pattern: workload.Bursty, Burst: 10, BurstFactor: 100},
			{Name: "steady", Jobs: n * 2 / 10, MeanInterarrival: 1.5},
			{Name: "diurnal", Jobs: n * 2 / 10, MeanInterarrival: 1.5,
				Pattern: workload.Diurnal, Period: 3600},
		},
	}
}

// collected gathers a result's trace into a slice.
func collected(r *simcluster.Result) []scheduler.AllocEvent {
	var out []scheduler.AllocEvent
	for _, e := range r.Events {
		out = append(out, e)
	}
	return out
}

// eventsDigest hashes every field of every event, times in full precision.
func eventsDigest(evs []scheduler.AllocEvent) string {
	h := sha256.New()
	for _, e := range evs {
		fmt.Fprintf(h, "%s %d %q %s %s %d\n",
			strconv.FormatFloat(e.Time, 'g', -1, 64), e.JobID, e.Job, e.Kind, e.Topo, e.Busy)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestResultEventsPinned pins Result.Events element for element, by count
// and digest, on workload 1 under ReSHAPE and on the 2 000-job fair-share
// mix: the trace a run reports must not move when its storage does. The
// digests were taken when the core kept the trace as a slice of
// AllocEvent, and the result a copy of it.
func TestResultEventsPinned(t *testing.T) {
	params := perfmodel.SystemX()
	w1, err := workload.Compare(workload.ClusterProcs, workload.W1(), params)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.Generate(tenantMix(2000, 10))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := simcluster.New(1024, simcluster.Dynamic, params, mix).WithoutIterRecords().
		WithArbiter(build(t, "fairshare", modes.Inputs{Predict: simcluster.Predictor(params, mix)})).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		events []scheduler.AllocEvent
		n      int
		digest string
	}{
		{"w1", collected(w1.Dynamic), 33, "11f2657cc36f85c30d097ab0afd1d17f4dc0f65f1b51dca07452d0c43fea3d53"},
		{"fairshare", collected(fs), 7315, "9b22bb23088f14cc05ec9fb69e878de4637934dcf0a3a32df9b30c7a0969761a"},
	} {
		got := eventsDigest(tc.events)
		t.Logf("%s: %d events, digest %s", tc.name, len(tc.events), got)
		if len(tc.events) != tc.n || got != tc.digest {
			t.Errorf("%s: %d events, digest %s; want %d, %s", tc.name, len(tc.events), got, tc.n, tc.digest)
		}
	}
}

// TestResultEventsReadAllocatesNothing: Result.Events reads the finished
// core's trace in place, so ranging over it allocates nothing, and
// BusySeries sees exactly the events it yields.
func TestResultEventsReadAllocatesNothing(t *testing.T) {
	w1, err := workload.Compare(workload.ClusterProcs, workload.W1(), perfmodel.SystemX())
	if err != nil {
		t.Fatal(err)
	}
	res := w1.Dynamic
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		n = 0
		for _, e := range res.Events {
			n += len(e.Job) + len(e.Kind)
		}
	}); allocs != 0 {
		t.Errorf("reading Result.Events allocates %.1f times a pass", allocs)
	}
	if n == 0 {
		t.Fatal("Result.Events yielded nothing")
	}
	if got, want := len(res.BusySeries()), len(collected(res)); got != want {
		t.Errorf("BusySeries has %d points for %d events", got, want)
	}
}
