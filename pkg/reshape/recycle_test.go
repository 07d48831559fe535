package reshape_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/resize"
	"repro/internal/scheduler"
	"repro/pkg/reshape"
)

// laps is how often TestTourRecyclesWithGCOn's job goes around its tour.
// What a run allocates hardly grows with the laps: most of it replaces the
// pieces the run before left behind (one copy of the arrays, 655 kB), the
// rest is wire buffers that scheduling happens to keep in flight at once.
const laps = 8

// tourApp registers two arrays and computes nothing: the resizes are the
// whole run. On 2x2 their pieces fill the arena's size classes exactly, so
// the pieces job end leaves behind cost no more than their size to replace.
type tourApp struct{}

func (tourApp) Init(rc *reshape.Context) error {
	a := rc.RegisterArray("A", 256, 256, 8, 8)
	rc.FillArray(a, func(i, j int) float64 { return float64(i*256 + j) })
	b := rc.RegisterArray("B", 128, 128, 8, 8)
	rc.FillArray(b, func(i, j int) float64 { return math.Sin(float64(i + 3*j)) })
	return nil
}

func (tourApp) Iterate(*reshape.Context) error { return nil }

// TestTourRecyclesWithGCOn runs a job laps times around 2x2 -> 2x3 -> 3x3
// -> 2x3 -> 2x2, twice over, with the collector on: spawned ranks take
// their pieces from the arena, retired ranks and job end give theirs back,
// and the next job's FillArray draws from them. Once the first run has
// stocked the arena, the second must allocate under 10 % of the bytes it
// redistributes (about a third when spawned and grown pieces were
// allocated). Most of what it does allocate replaces the first run's final
// pieces, which job end leaves to the caller.
func TestTourRecyclesWithGCOn(t *testing.T) {
	var tour []scheduler.Decision
	for lap := 0; lap < laps; lap++ {
		tour = append(tour,
			scheduler.Decision{Action: scheduler.ActionExpand, Target: topo(2, 3)},
			scheduler.Decision{Action: scheduler.ActionExpand, Target: topo(3, 3)},
			scheduler.Decision{Action: scheduler.ActionShrink, Target: topo(2, 3)},
			scheduler.Decision{Action: scheduler.ActionShrink, Target: topo(2, 2)})
	}
	tour = append(tour, scheduler.Decision{Action: scheduler.ActionNone})
	run := func() *reshape.Report {
		rep, err := reshape.Run(context.Background(), tourApp{},
			reshape.WithScheduler(&resize.ScriptedClient{Script: tour}),
			reshape.WithTopology(topo(2, 2)),
			reshape.WithMaxIterations(len(tour)))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Resizes != 4*laps || rep.FinalTopo != topo(2, 2) {
			t.Fatalf("%d resizes ending on %v, want %d ending on 2x2", rep.Resizes, rep.FinalTopo, 4*laps)
		}
		return rep
	}
	run()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := run()
	runtime.ReadMemStats(&after)

	moved := 0.0
	for _, o := range rep.RedistObservations {
		moved += o.Bytes + o.CopiedBytes
	}
	allocated := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("second run allocated %.0f B while redistributing %.0f B", allocated, moved)
	if want := 4 * laps * 8 * float64(256*256+128*128); moved != want {
		t.Fatalf("redistributed %.0f B, want %.0f B (every float of both arrays at every resize)", moved, want)
	}
	if allocated > 0.10*moved {
		t.Errorf("second run allocated %.0f B, want under 10 %% of the %.0f B it redistributed", allocated, moved)
	}
}
