package reshape_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/resize"
	"repro/internal/scheduler"
	"repro/pkg/reshape"
)

// legacyOutcome is what the pre-SDK worker path produced for one job.
type legacyOutcome struct {
	records    []resize.IterationRecord
	finalTopo  grid.Topology
	iterations int
	replicated map[string][]float64
	contacts   int
	completed  int
	ended      bool
}

// legacyLoopWorker replicates the seed's hand-rolled application loop —
// the `loopWorker` boilerplate every app used to duplicate — driving the
// same App's Iterate through a bare-session Context. It is the reference
// the SDK's Run loop is pinned against.
func legacyLoopWorker(app reshape.App, iterations int) resize.Worker {
	return func(s *resize.Session) error {
		rc := reshape.NewContext(s)
		for s.Iter() < iterations {
			t0 := time.Now()
			if err := app.Iterate(rc); err != nil {
				return err
			}
			elapsed := time.Since(t0).Seconds()
			st, err := s.ResizeAveraged(s.Log(elapsed))
			if err != nil {
				return err
			}
			if st == resize.Retired {
				return nil
			}
		}
		return s.Done()
	}
}

// runLegacy executes an app the pre-SDK way: explicit world, session and
// worker closure.
func runLegacy(t *testing.T, app reshape.App, iterations int, start grid.Topology, script []scheduler.Decision) legacyOutcome {
	t.Helper()
	client := &resize.ScriptedClient{Script: script}
	worker := legacyLoopWorker(app, iterations)
	var mu sync.Mutex
	var out legacyOutcome
	err := mpi.Run(start.Count(), func(c *mpi.Comm) error {
		s, err := resize.NewSession(client, 1, c, start, worker)
		if err != nil {
			return err
		}
		if err := app.Init(reshape.NewContext(s)); err != nil {
			return err
		}
		if err := worker(s); err != nil {
			return err
		}
		if s.Comm().Rank() == 0 {
			mu.Lock()
			out.records = append([]resize.IterationRecord{}, s.LogRecords()...)
			out.finalTopo = s.Topo()
			out.iterations = s.Iter()
			out.replicated = map[string][]float64{}
			for _, name := range s.ReplicatedNames() {
				out.replicated[name] = append([]float64{}, s.Replicated(name)...)
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("legacy path: %v", err)
	}
	out.contacts = client.Contacts
	out.completed = len(client.Completed)
	out.ended = client.Ended
	return out
}

// diffCase pins both paths for one app through an expand/hold/shrink
// trajectory and asserts identical iteration records and resize outcomes.
func diffCase(t *testing.T, cfg apps.Config, start, bigger grid.Topology) {
	t.Helper()
	script := []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: bigger},
		{Action: scheduler.ActionNone},
		{Action: scheduler.ActionShrink, Target: start},
	}

	oldApp, err := apps.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old := runLegacy(t, oldApp, cfg.Iterations, start, script)

	newApp, err := apps.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client := &resize.ScriptedClient{Script: script}
	rep, err := reshape.Run(context.Background(), newApp,
		reshape.WithScheduler(client),
		reshape.WithJobID(1),
		reshape.WithTopology(start),
		reshape.WithMaxIterations(cfg.Iterations))
	if err != nil {
		t.Fatalf("SDK path: %v", err)
	}

	// Same iteration records: one per iteration, same iteration numbers on
	// the same topologies (times are wall-clock and excluded).
	if len(rep.Records) != len(old.records) {
		t.Fatalf("records: SDK %d, legacy %d", len(rep.Records), len(old.records))
	}
	for i := range old.records {
		if rep.Records[i].Iter != old.records[i].Iter || rep.Records[i].Topo != old.records[i].Topo {
			t.Errorf("record %d: SDK (iter %d on %v), legacy (iter %d on %v)", i,
				rep.Records[i].Iter, rep.Records[i].Topo, old.records[i].Iter, old.records[i].Topo)
		}
	}
	// Same resize outcomes: contacts, completed resizes, completion signal,
	// final topology and iteration count.
	if client.Contacts != old.contacts {
		t.Errorf("contacts: SDK %d, legacy %d", client.Contacts, old.contacts)
	}
	if len(client.Completed) != old.completed {
		t.Errorf("completed resizes: SDK %d, legacy %d", len(client.Completed), old.completed)
	}
	if client.Ended != old.ended {
		t.Errorf("ended: SDK %v, legacy %v", client.Ended, old.ended)
	}
	if rep.FinalTopo != old.finalTopo {
		t.Errorf("final topo: SDK %v, legacy %v", rep.FinalTopo, old.finalTopo)
	}
	if rep.Iterations != old.iterations {
		t.Errorf("iterations: SDK %d, legacy %d", rep.Iterations, old.iterations)
	}
	// Identical replicated results: both paths performed the same arithmetic
	// on the same topologies, so solutions must match bit for bit.
	if len(rep.Replicated) != len(old.replicated) {
		t.Fatalf("replicated sets differ: SDK %v, legacy %v", keys(rep.Replicated), keys(old.replicated))
	}
	for name, want := range old.replicated {
		got := rep.Replicated[name]
		if len(got) != len(want) {
			t.Errorf("replicated %q: SDK %d values, legacy %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("replicated %q[%d]: SDK %v, legacy %v", name, i, got[i], want[i])
				break
			}
		}
	}
}

func keys(m map[string][]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDifferentialLU(t *testing.T) {
	diffCase(t, apps.Config{App: "lu", N: 12, NB: 2, Iterations: 5},
		grid.Topology{Rows: 1, Cols: 2}, grid.Topology{Rows: 2, Cols: 2})
}

func TestDifferentialJacobi(t *testing.T) {
	diffCase(t, apps.Config{App: "jacobi", N: 12, NB: 2, Iterations: 6, Sweeps: 5},
		grid.Row1D(2), grid.Row1D(4))
}

func TestDifferentialCG(t *testing.T) {
	diffCase(t, apps.Config{App: "cg", N: 12, NB: 2, Iterations: 5, Sweeps: 3},
		grid.Topology{Rows: 1, Cols: 2}, grid.Topology{Rows: 2, Cols: 3})
}

func TestDifferentialMW(t *testing.T) {
	diffCase(t, apps.Config{App: "mw", Iterations: 4, MWUnits: 30, MWChunk: 5, MWUnitWork: 10},
		grid.Row1D(2), grid.Row1D(4))
}

// TestDifferentialRetirePath pins the shrink-retire trajectory: ranks
// shrunk away must leave both loops identically (no Done from retired
// ranks, one completion signal overall).
func TestDifferentialRetire(t *testing.T) {
	cfg := apps.Config{App: "fft", N: 8, NB: 2, Iterations: 4}
	start := grid.Row1D(4)
	script := []scheduler.Decision{
		{Action: scheduler.ActionShrink, Target: grid.Row1D(2)},
		{Action: scheduler.ActionNone},
	}
	oldApp, err := apps.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old := runLegacy(t, oldApp, cfg.Iterations, start, script)

	newApp, err := apps.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client := &resize.ScriptedClient{Script: script}
	rep, err := reshape.Run(context.Background(), newApp,
		reshape.WithScheduler(client),
		reshape.WithTopology(start),
		reshape.WithMaxIterations(cfg.Iterations))
	if err != nil {
		t.Fatal(err)
	}
	if client.Contacts != old.contacts || client.Ended != old.ended {
		t.Errorf("retire outcomes differ: SDK (%d contacts, ended %v), legacy (%d, %v)",
			client.Contacts, client.Ended, old.contacts, old.ended)
	}
	if rep.FinalTopo != old.finalTopo {
		t.Errorf("final topo: SDK %v, legacy %v", rep.FinalTopo, old.finalTopo)
	}
	if fmt.Sprint(rep.FinalTopo) != fmt.Sprint(grid.Row1D(2)) {
		t.Errorf("job did not shrink to 1x2: %v", rep.FinalTopo)
	}
}
