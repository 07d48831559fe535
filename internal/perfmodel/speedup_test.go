package perfmodel

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/grid"
)

// genObs builds a randomized observation set that looks like a Profile's
// visit history: a handful of distinct processor counts with iteration
// times drawn from a noisy Amdahl/Downey ground truth.
func genObs(rng *rand.Rand) []SpeedupObs {
	serial := rng.Float64() * 5
	parallel := 10 + rng.Float64()*1000
	contention := rng.Float64() * 0.5
	n := 1 + rng.Intn(6)
	var obs []SpeedupObs
	for i := 0; i < n; i++ {
		p := 1 + rng.Intn(64)
		truth := serial + parallel/float64(p) + contention*float64(p)
		// Up to three repeated samples per count, ±10% noise.
		for k := 0; k <= rng.Intn(3); k++ {
			obs = append(obs, SpeedupObs{Procs: p, Seconds: truth * (0.9 + 0.2*rng.Float64())})
		}
	}
	return obs
}

// TestFitSpeedupProperties is the fitter's property suite: over many
// randomized observation sets the fitted curve must (1) predict finite,
// strictly positive, non-NaN times everywhere, and (2) imply a speedup
// that is monotone non-decreasing in processors up to the fitted knee —
// i.e. predicted iteration time never increases before the knee.
func TestFitSpeedupProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		obs := genObs(rng)
		c := FitSpeedup(obs)
		if !c.Valid() {
			t.Fatalf("trial %d: no curve from %d observations", trial, len(obs))
		}
		if c.Serial < 0 || c.Parallel < 0 || c.Contention < 0 {
			t.Fatalf("trial %d: negative coefficient %+v", trial, c)
		}
		knee := c.Knee()
		if knee < 1 {
			t.Fatalf("trial %d: knee %d < 1", trial, knee)
		}
		maxP := 256
		if knee < maxP {
			maxP = knee
		}
		prev := math.Inf(1)
		for p := 1; p <= 256; p++ {
			sec, ok := c.Eval(p)
			if !ok {
				t.Fatalf("trial %d: Eval(%d) not ok on valid curve", trial, p)
			}
			if sec <= 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
				t.Fatalf("trial %d: Eval(%d) = %v, want finite positive", trial, p, sec)
			}
			if p <= maxP {
				if sec > prev+1e-9 {
					t.Fatalf("trial %d: time increased before knee %d: T(%d)=%v > T(%d)=%v (curve %+v)",
						trial, knee, p, sec, p-1, prev, c)
				}
				prev = sec
			}
		}
	}
}

// TestFitSpeedupSingleVisit pins the degenerate case: a job measured on
// exactly one configuration gets a flat curve at the observed time — never
// a wild extrapolation, never NaN.
func TestFitSpeedupSingleVisit(t *testing.T) {
	c := FitSpeedup([]SpeedupObs{{Procs: 8, Seconds: 3.5}, {Procs: 8, Seconds: 4.5}})
	if !c.Valid() || c.Points != 1 {
		t.Fatalf("want a 1-point curve, got %+v", c)
	}
	for _, p := range []int{1, 8, 1024} {
		sec, ok := c.Eval(p)
		if !ok || sec != 4.0 {
			t.Fatalf("Eval(%d) = %v,%v, want flat mean 4.0", p, sec, ok)
		}
	}
	if knee := c.Knee(); knee != 1 {
		t.Fatalf("flat curve knee = %d, want 1 (more processors never help)", knee)
	}
}

// TestFitSpeedupRejectsGarbage pins input hygiene: non-positive counts and
// times, NaNs and infinities are dropped rather than poisoning the fit.
func TestFitSpeedupRejectsGarbage(t *testing.T) {
	c := FitSpeedup([]SpeedupObs{
		{Procs: 0, Seconds: 1},
		{Procs: -4, Seconds: 1},
		{Procs: 4, Seconds: 0},
		{Procs: 4, Seconds: -2},
		{Procs: 4, Seconds: math.NaN()},
		{Procs: 4, Seconds: math.Inf(1)},
	})
	if c.Valid() {
		t.Fatalf("curve fitted from pure garbage: %+v", c)
	}
	if _, ok := c.Eval(4); ok {
		t.Fatal("invalid curve must not evaluate")
	}
}

// TestFitSpeedupRecoversAmdahl checks the fit on clean Amdahl data: with
// zero noise the two-parameter ground truth is recovered almost exactly
// and predictions interpolate unvisited counts.
func TestFitSpeedupRecoversAmdahl(t *testing.T) {
	truth := func(p int) float64 { return 2.0 + 120.0/float64(p) }
	var obs []SpeedupObs
	for _, p := range []int{1, 4, 16, 36} {
		obs = append(obs, SpeedupObs{Procs: p, Seconds: truth(p)})
	}
	c := FitSpeedup(obs)
	for _, p := range []int{2, 8, 25, 64} {
		sec, ok := c.Eval(p)
		if !ok {
			t.Fatalf("Eval(%d) not ok", p)
		}
		if math.Abs(sec-truth(p)) > 1e-6*truth(p) {
			t.Fatalf("Eval(%d) = %v, want %v (curve %+v)", p, sec, truth(p), c)
		}
	}
}

// TestFitSpeedupDeterministic pins bit-identical refits: the rebalancer
// journals only the planning tick and recomputes the plan on replay, so
// the fit must be a pure function of its inputs.
func TestFitSpeedupDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		obs := genObs(rng)
		a, b := FitSpeedup(obs), FitSpeedup(obs)
		if a != b {
			t.Fatalf("trial %d: fit not deterministic: %+v vs %+v", trial, a, b)
		}
	}
}

// TestCurvePredictorContract round-trips a fitted curve through the
// predictor contract shared by simcluster.Predictor and the arbiter's
// Predict hook: (jobID, Topology) -> (seconds, ok).
func TestCurvePredictorContract(t *testing.T) {
	curves := map[int]Curve{
		1: FitSpeedup([]SpeedupObs{{Procs: 4, Seconds: 30}, {Procs: 8, Seconds: 16}, {Procs: 16, Seconds: 9}}),
	}
	predict := func(jobID int, topo grid.Topology) (float64, bool) {
		c, ok := curves[jobID]
		if !ok {
			return 0, false
		}
		return c.Eval(topo.Count())
	}

	if _, ok := predict(2, grid.Topology{Rows: 2, Cols: 2}); ok {
		t.Fatal("unknown job must predict !ok")
	}
	if _, ok := predict(1, grid.Topology{}); ok {
		t.Fatal("empty topology must predict !ok")
	}
	sec44, ok := predict(1, grid.Topology{Rows: 4, Cols: 4})
	if !ok || sec44 <= 0 || math.IsNaN(sec44) {
		t.Fatalf("predict(1, 4x4) = %v,%v", sec44, ok)
	}
	// Shape-blind within a count: the curve sees processor counts, so two
	// topologies with equal Count agree.
	sec28, ok := predict(1, grid.Topology{Rows: 2, Cols: 8})
	if !ok || sec28 != sec44 {
		t.Fatalf("predict must depend only on Count: 2x8=%v vs 4x4=%v", sec28, sec44)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/fitspeedup.golden from the current FitSpeedup")

// goldenObs builds observation set i of the golden suite. Sets cycle
// through 1, 2, 3–8 and 9–20 distinct processor counts; every count gets
// one to three noisy samples, the samples are shuffled so a count's
// duplicates are not adjacent, and every third set is salted with samples
// FitSpeedup must drop (NaN, ±Inf, zero and negative seconds, Procs < 1).
func goldenObs(rng *rand.Rand, i int) []SpeedupObs {
	distinct := []int{1, 2, 3 + rng.Intn(6), 9 + rng.Intn(12)}[i%4]
	serial := rng.Float64() * 5
	parallel := 10 + rng.Float64()*1000
	contention := rng.Float64() * 0.5
	var obs []SpeedupObs
	for _, p := range rng.Perm(96)[:distinct] {
		p++
		truth := serial + parallel/float64(p) + contention*float64(p)
		for k := rng.Intn(3); k >= 0; k-- {
			obs = append(obs, SpeedupObs{Procs: p, Seconds: truth * (0.8 + 0.4*rng.Float64())})
		}
	}
	if i%3 == 0 {
		obs = append(obs,
			SpeedupObs{Procs: 4, Seconds: math.NaN()},
			SpeedupObs{Procs: 8, Seconds: math.Inf(1)},
			SpeedupObs{Procs: 8, Seconds: math.Inf(-1)},
			SpeedupObs{Procs: 16, Seconds: 0},
			SpeedupObs{Procs: 2, Seconds: -1.5},
			SpeedupObs{Procs: 0, Seconds: 3},
			SpeedupObs{Procs: -4, Seconds: 3})
	}
	rng.Shuffle(len(obs), func(a, b int) { obs[a], obs[b] = obs[b], obs[a] })
	return obs
}

// TestFitSpeedupGolden pins every bit of the fitter's output: 1200 seeded
// observation sets against the Curve bits recorded in
// testdata/fitspeedup.golden. The rebalancer's plans are a function of
// these curves and a recovered daemon must recompute them exactly, so a
// rewrite of the fitter has to keep the summation and elimination order —
// -update is only right when changing the fit is the point.
func TestFitSpeedupGolden(t *testing.T) {
	const sets = 1200
	rng := rand.New(rand.NewSource(20))
	var got strings.Builder
	for i := 0; i < sets; i++ {
		c := FitSpeedup(goldenObs(rng, i))
		fmt.Fprintf(&got, "%016x %016x %016x %d\n",
			math.Float64bits(c.Serial), math.Float64bits(c.Parallel), math.Float64bits(c.Contention), c.Points)
	}
	const path = "testdata/fitspeedup.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, fitted %d sets", len(wantLines)-1, len(gotLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("set %d: curve bits %q, golden %q", i, gotLines[i], wantLines[i])
		}
	}
}
