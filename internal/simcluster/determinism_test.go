package simcluster

import (
	"slices"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
)

// collected gathers a result's trace into a slice, for comparing runs.
func collected(r *Result) []scheduler.AllocEvent {
	var out []scheduler.AllocEvent
	for _, e := range r.Events {
		out = append(out, e)
	}
	return out
}

// TestSimulationDeterminism: identical inputs must produce byte-identical
// traces — the simulator has no hidden randomness or map-iteration order
// dependence, so every figure regenerates exactly.
func TestSimulationDeterminism(t *testing.T) {
	p := perfmodel.SystemX()
	jobs := []JobInput{
		luJob("A", 21000, topo(2, 3), 0, 10),
		luJob("B", 14000, topo(2, 4), 100, 10),
		luJob("C", 8000, topo(1, 2), 450, 10),
	}
	run := func() *Result {
		res, err := New(36, Dynamic, p, jobs).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	b := run()
	if a.Makespan != b.Makespan || a.Utilization != b.Utilization {
		t.Fatalf("summary differs: %v/%v vs %v/%v",
			a.Makespan, a.Utilization, b.Makespan, b.Utilization)
	}
	ea, eb := collected(a), collected(b)
	if len(ea) == 0 || !slices.Equal(ea, eb) {
		t.Fatalf("traces differ: %d vs %d events", len(ea), len(eb))
	}
	for i := range a.Jobs {
		if a.Jobs[i].End != b.Jobs[i].End || len(a.Jobs[i].Iters) != len(b.Jobs[i].Iters) {
			t.Fatalf("job %s differs between runs", a.Jobs[i].Name)
		}
	}
}

// TestSimulationConservation: every simulated job runs exactly its
// configured number of iterations regardless of mode, and redistribution
// time is only charged on transitions.
func TestSimulationConservation(t *testing.T) {
	p := perfmodel.SystemX()
	jobs := []JobInput{
		luJob("A", 12000, topo(1, 2), 0, 10),
		luJob("B", 16000, topo(2, 2), 50, 10),
	}
	for _, mode := range []Mode{Static, Dynamic, DynamicCheckpoint} {
		res, err := New(36, mode, p, jobs).Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range res.Jobs {
			if len(j.Iters) != 10 {
				t.Errorf("%v %s: %d iterations", mode, j.Name, len(j.Iters))
			}
			sumRedist := 0.0
			for i, r := range j.Iters {
				if r.IterTime <= 0 {
					t.Errorf("%v %s iter %d: non-positive time", mode, j.Name, i)
				}
				sumRedist += r.RedistSec
			}
			if diff := sumRedist - j.TotalRedist; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%v %s: per-iter redist %.3f != total %.3f", mode, j.Name, sumRedist, j.TotalRedist)
			}
			if mode == Static && j.TotalRedist != 0 {
				t.Errorf("static %s paid redistribution", j.Name)
			}
		}
	}
}
