package reshape

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/resize"
	"repro/internal/scheduler"
)

// TestOscillationRecyclesPieces drives a job's ranks back and forth between
// 2x2 and 3x3 for ten cycles, with a garbage collection before each.
// Arrays must come back bit-identical to the pieces they started as, and
// once the first cycle has stocked the arena, a resize must
// allocate under 1 % of the bytes it moves: the collector does not empty
// the arena. The budget is held on the median cycle: how many wire buffers
// are in flight at once depends on how the ranks are scheduled, so a later
// cycle can still add a buffer to the arena — the total is only held to
// 10 %, against about 400 % before pieces and buffers were recycled. The
// budgets hold under the race detector too: unlike a sync.Pool, the arena
// keeps what it is given.
func TestOscillationRecyclesPieces(t *testing.T) {
	const (
		m, nb   = 240, 8
		nArrays = 3
		cycles  = 10
	)
	small, large := topo(2, 2), topo(3, 3)

	perCycle := make([]float64, 0, cycles) // bytes allocated by all ranks; rank 0 appends
	err := mpi.Run(large.Count(), func(c *mpi.Comm) error {
		rc, err := newRank(resize.NullClient{}, 20, c, small)
		if err != nil {
			return err
		}
		var orig [][]float64
		for a := 0; a < nArrays; a++ {
			arr := rc.RegisterArray(fmt.Sprint("A", a), m+a, m-a, nb, nb)
			fillByGlobal(rc, arr)
			orig = append(orig, slices.Clone(arr.Data))
		}
		var ms runtime.MemStats
		for cycle := 0; cycle < cycles; cycle++ {
			c.Barrier()
			if c.Rank() == 0 {
				runtime.GC()
				runtime.ReadMemStats(&ms)
			}
			before := ms.TotalAlloc
			c.Barrier()
			if err := rc.redistribute(c, small, large); err != nil {
				return err
			}
			if err := rc.redistribute(c, large, small); err != nil {
				return err
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&ms)
				perCycle = append(perCycle, float64(ms.TotalAlloc-before))
			}
		}
		for a, arr := range rc.Arrays() {
			if !slices.Equal(arr.Data, orig[a]) {
				return fmt.Errorf("rank %d: array %s differs from its no-resize contents", c.Rank(), arr.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0.0 // bytes through one cycle: every array crosses twice
	for a := 0; a < nArrays; a++ {
		moved += 2 * 8 * float64((m+a)*(m-a))
	}
	steady := perCycle[1:]
	total := 0.0
	for _, b := range steady {
		total += b
	}
	slices.Sort(steady)
	median := steady[len(steady)/2]
	t.Logf("first cycle allocated %.0f B; after it median %.0f B, mean %.0f B per cycle of %.0f B moved",
		perCycle[0], median, total/float64(len(steady)), moved)
	if median > 0.01*moved {
		t.Errorf("steady-state cycle allocates %.0f B, want under 1 %% of the %.0f B it moves", median, moved)
	}
	if total > 0.10*moved*float64(len(steady)) {
		t.Errorf("cycles after the first allocated %.0f B in all, want under 10 %% of what they moved", total)
	}
}

// TestRecyclingLeavesSessionStateAlone runs real expansions and shrinks
// 2x2 -> 3x3 -> 2x2 -> 3x3 -> 2x2: every rank takes its new pieces from the
// arena and returns the ones it moved out of to it at once.
// Replicated buffers, the redistribution observations and the resize costs
// must be what they are without recycling, and a retired rank must end
// with nil Data.
func TestRecyclingLeavesSessionStateAlone(t *testing.T) {
	small, large := topo(2, 2), topo(3, 3)
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: large},
		{Action: scheduler.ActionShrink, Target: small},
		{Action: scheduler.ActionExpand, Target: large},
		{Action: scheduler.ActionShrink, Target: small},
		{Action: scheduler.ActionNone},
	}}
	var mu sync.Mutex
	var ranks []*Context // every rank the job ever had
	keep := func(rc *Context) {
		mu.Lock()
		ranks = append(ranks, rc)
		mu.Unlock()
	}
	arrays := withArrays(resize.Array{Name: "A", M: 24, N: 24, MB: 2, NB: 2}, resize.Array{Name: "B", M: 13, N: 9, MB: 3, NB: 2})
	app := testApp{
		init: func(rc *Context) error {
			keep(rc)
			rc.SetReplicated("x", []float64{7, 8, 9})
			return arrays(rc)
		},
		iterate: func(rc *Context) error {
			if x := rc.Replicated("x"); !slices.Equal(x, []float64{7, 8, 9}) {
				return fmt.Errorf("iter %d rank %d: replicated x = %v", rc.Iter(), rc.Rank(), x)
			}
			return verifyAll(rc)
		},
		onResize: func(rc *Context, ev ResizeEvent) error {
			if ev.Kind == Joined {
				keep(rc)
			} else if ev.Seconds <= 0 {
				return fmt.Errorf("iter %d: resize cost %v", ev.Iter, ev.Seconds)
			}
			return nil
		},
	}
	rep, err := runScripted(app, client, small, 5, WithJobID(21))
	if err != nil {
		t.Fatal(err)
	}
	retired := 0
	for _, rc := range ranks {
		if rc.topo == small { // a survivor: a retired rank keeps the grid it left
			if rc.lastRedist != 0 {
				t.Errorf("rank %d ends with resize cost %v after a no-change resize point", rc.Rank(), rc.lastRedist)
			}
			continue
		}
		retired++
		for _, a := range rc.Arrays() {
			if a.Data != nil {
				t.Errorf("retired rank keeps %d floats of %s", len(a.Data), a.Name)
			}
		}
	}
	if retired != 10 || len(ranks) != 14 {
		t.Errorf("%d of %d ranks retired over two shrinks, want 10 of 14", retired, len(ranks))
	}
	if len(client.Completed) != 4 {
		t.Errorf("ResizeComplete calls = %d, want 4", len(client.Completed))
	}
	obs := rep.RedistObservations
	if len(obs) != 4 {
		t.Fatalf("%d observations, want 4", len(obs))
	}
	// The second lap runs on recycled pieces; it must account the same
	// traffic as the first, which ran on fresh ones.
	for i := 0; i < 2; i++ {
		first, again := obs[i], obs[i+2]
		first.Seconds, again.Seconds = 0, 0
		if first != again || first.Bytes <= 0 || first.CopiedBytes <= 0 {
			t.Errorf("resize %d observed %+v, its repeat on recycled pieces %+v", i, first, again)
		}
	}
}

// laps is how often TestTourRecyclesWithGCOn's job goes around its tour.
// What a run allocates hardly grows with the laps: most of it replaces the
// pieces the run before left behind (one copy of the arrays, 655 kB), the
// rest is wire buffers that scheduling happens to keep in flight at once.
const laps = 8

// tourApp registers two arrays and computes nothing: the resizes are the
// whole run. On 2x2 their pieces fill the arena's size classes exactly, so
// the pieces job end leaves behind cost no more than their size to replace.
type tourApp struct{}

func (tourApp) Init(rc *Context) error {
	a := rc.RegisterArray("A", 256, 256, 8, 8)
	rc.FillArray(a, func(i, j int) float64 { return float64(i*256 + j) })
	b := rc.RegisterArray("B", 128, 128, 8, 8)
	rc.FillArray(b, func(i, j int) float64 { return math.Sin(float64(i + 3*j)) })
	return nil
}

func (tourApp) Iterate(*Context) error { return nil }

// TestTourRecyclesWithGCOn runs a job laps times around 2x2 -> 2x3 -> 3x3
// -> 2x3 -> 2x2, twice over, with the collector on: every resize takes its
// new pieces from the arena and gives the old ones back, and the next
// job's FillArray draws from them. Once the first run has
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
	run := func() *Report {
		rep, err := Run(context.Background(), tourApp{},
			WithScheduler(&resize.ScriptedClient{Script: tour}),
			WithTopology(topo(2, 2)),
			WithMaxIterations(len(tour)))
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
