package apps

import (
	"context"
	"testing"

	"repro/internal/grid"
	"repro/internal/resize"
	"repro/internal/scheduler"
	"repro/pkg/reshape"
)

// runAppThroughResizes executes a full application under reshape.Run,
// forcing an expansion after iteration 1 and a shrink back after iteration
// 3, and returns the final replicated state captured on rank 0 (empty for
// apps without replicated state).
func runAppThroughResizes(t *testing.T, cfg Config, start, bigger grid.Topology) map[string][]float64 {
	t.Helper()
	app, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: bigger},
		{Action: scheduler.ActionNone},
		{Action: scheduler.ActionShrink, Target: start},
	}}

	rep, err := reshape.Run(context.Background(), app,
		reshape.WithScheduler(client),
		reshape.WithJobID(1),
		reshape.WithTopology(start),
		reshape.WithMaxIterations(cfg.Iterations))
	if err != nil {
		t.Fatalf("app %s through resizes: %v", cfg.App, err)
	}
	if !client.Ended {
		t.Fatalf("app %s never reported completion", cfg.App)
	}
	if len(client.Completed) != 2 {
		t.Fatalf("app %s: %d resizes completed, want 2", cfg.App, len(client.Completed))
	}
	if rep.Iterations != cfg.Iterations {
		t.Fatalf("app %s: %d iterations recorded, want %d", cfg.App, rep.Iterations, cfg.Iterations)
	}
	if rep.FinalTopo != start {
		t.Fatalf("app %s: finished on %v, want %v", cfg.App, rep.FinalTopo, start)
	}
	return rep.Replicated
}

func TestLURunnerSurvivesResizes(t *testing.T) {
	runAppThroughResizes(t,
		Config{App: "lu", N: 12, NB: 2, Iterations: 5},
		grid.Topology{Rows: 1, Cols: 2}, grid.Topology{Rows: 2, Cols: 2})
}

func TestMMRunnerSurvivesResizes(t *testing.T) {
	runAppThroughResizes(t,
		Config{App: "mm", N: 8, NB: 2, Iterations: 5},
		grid.Topology{Rows: 1, Cols: 2}, grid.Topology{Rows: 2, Cols: 3})
}

func TestJacobiRunnerConvergesThroughResizes(t *testing.T) {
	final := runAppThroughResizes(t,
		Config{App: "jacobi", N: 12, NB: 2, Iterations: 6, Sweeps: 10},
		grid.Row1D(2), grid.Row1D(4))
	res := final["residual"]
	if len(res) != 1 {
		t.Fatalf("missing residual: %v", final)
	}
	if res[0] > 1e-10 {
		t.Errorf("Jacobi residual %v after 60 sweeps across resizes", res[0])
	}
}

func TestFFTRunnerSurvivesResizes(t *testing.T) {
	runAppThroughResizes(t,
		Config{App: "fft", N: 16, NB: 2, Iterations: 5},
		grid.Row1D(2), grid.Row1D(4))
}

func TestMWRunnerSurvivesResizes(t *testing.T) {
	runAppThroughResizes(t,
		Config{App: "mw", Iterations: 5, MWUnits: 30, MWChunk: 5, MWUnitWork: 20},
		grid.Row1D(2), grid.Row1D(4))
}

func TestCGRunnerConvergesThroughResizes(t *testing.T) {
	final := runAppThroughResizes(t,
		Config{App: "cg", N: 12, NB: 2, Iterations: 6, Sweeps: 4},
		grid.Topology{Rows: 1, Cols: 2}, grid.Topology{Rows: 2, Cols: 2})
	res := final["residual"]
	if len(res) != 1 {
		t.Fatalf("missing residual: %v", final)
	}
	if res[0] > 1e-10 {
		t.Errorf("CG residual %v after 24 steps across resizes", res[0])
	}
	// The solution must satisfy the system: spot-check against b.
	if len(final["x"]) != 12 || len(final["b"]) != 12 {
		t.Fatalf("missing vectors: %v", final)
	}
}

func TestJacobiSolutionMatchesAcrossTopologies(t *testing.T) {
	// The same problem solved statically on 2 and on 4 processors must give
	// identical replicated solutions (determinism of the distributed sweep).
	get := func(p int) []float64 {
		app, err := Build(Config{App: "jacobi", N: 12, NB: 2, Iterations: 3, Sweeps: 15})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := reshape.Run(context.Background(), app,
			reshape.WithTopology(grid.Row1D(p)),
			reshape.WithMaxIterations(3))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Replicated["x"]
	}
	x2 := get(2)
	x4 := get(4)
	if len(x2) != 12 || len(x4) != 12 {
		t.Fatalf("lengths %d/%d", len(x2), len(x4))
	}
	for i := range x2 {
		if x2[i] != x4[i] {
			t.Fatalf("x[%d] differs: %v vs %v", i, x2[i], x4[i])
		}
	}
}

// TestSpecConfig: a job's spec maps onto the configuration it launches
// field for field, and a spec without a block size gets 2.
func TestSpecConfig(t *testing.T) {
	for _, tc := range []struct {
		nb, wantNB int
	}{{4, 4}, {1, 1}, {0, 2}, {-3, 2}} {
		spec := scheduler.JobSpec{App: "lu", ProblemSize: 64, BlockSize: tc.nb, Iterations: 7}
		want := Config{App: "lu", N: 64, NB: tc.wantNB, Iterations: 7}
		if got := SpecConfig(spec); got != want {
			t.Errorf("block size %d: %+v, want %+v", tc.nb, got, want)
		}
	}
}
