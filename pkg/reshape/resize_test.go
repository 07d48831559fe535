package reshape

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/redistrib"
	"repro/internal/resize"
	"repro/internal/scheduler"
)

func topo(r, c int) grid.Topology { return grid.Topology{Rows: r, Cols: c} }

// testApp is an App built from closures; a nil closure does nothing.
type testApp struct {
	init     func(rc *Context) error
	iterate  func(rc *Context) error
	onResize func(rc *Context, ev ResizeEvent) error
}

func (a testApp) Init(rc *Context) error {
	if a.init == nil {
		return nil
	}
	return a.init(rc)
}

func (a testApp) Iterate(rc *Context) error {
	if a.iterate == nil {
		return nil
	}
	return a.iterate(rc)
}

func (a testApp) OnResize(rc *Context, ev ResizeEvent) error {
	if a.onResize == nil {
		return nil
	}
	return a.onResize(rc, ev)
}

// newRank makes one rank's context under a runner that reports to client
// as jobID, for tests that drive the resizing stages without Run's loop.
// Collective over c.
func newRank(client resize.Client, jobID int, c *mpi.Comm, t grid.Topology) (*Context, error) {
	cfg := defaultConfig()
	cfg.client, cfg.jobID = client, jobID
	return (&runner{cfg: cfg, ctx: context.Background()}).newContext(c, t)
}

// runScripted runs app from start for iters iterations under client.
func runScripted(app App, client resize.Client, start grid.Topology, iters int, opts ...Option) (*Report, error) {
	opts = append([]Option{WithScheduler(client), WithTopology(start), WithMaxIterations(iters)}, opts...)
	return Run(context.Background(), app, opts...)
}

// fillByGlobal populates an array's local piece from global coordinates so
// any rank can verify contents after redistribution.
func fillByGlobal(rc *Context, a *resize.Array) {
	rc.FillArray(a, func(i, j int) float64 { return float64(i*1000 + j) })
}

// withArrays is an Init that registers arrays of the given shapes and fills
// them by global index.
func withArrays(shapes ...resize.Array) func(rc *Context) error {
	return func(rc *Context) error {
		for _, s := range shapes {
			fillByGlobal(rc, rc.RegisterArray(s.Name, s.M, s.N, s.MB, s.NB))
		}
		return nil
	}
}

// verifyByGlobal checks every local element against the global formula.
func verifyByGlobal(rc *Context, a *resize.Array) error {
	l := a.LayoutFor(rc.Topo())
	rank := rc.Rank()
	pr, pc := l.Coords(rank)
	rows, cols := l.LocalRows(pr), l.LocalCols(pc)
	if len(a.Data) != rows*cols {
		return fmt.Errorf("rank %d: %s holds %d floats, want %d", rank, a.Name, len(a.Data), rows*cols)
	}
	for li := 0; li < rows; li++ {
		for lj := 0; lj < cols; lj++ {
			gi, gj := l.LocalToGlobal(pr, pc, li, lj)
			if a.Data[li*cols+lj] != float64(gi*1000+gj) {
				return fmt.Errorf("rank %d: %s(%d,%d) = %v", rank, a.Name, gi, gj, a.Data[li*cols+lj])
			}
		}
	}
	return nil
}

// verifyAll checks every registered array on the rank's current grid.
func verifyAll(rc *Context) error {
	for _, a := range rc.Arrays() {
		if err := verifyByGlobal(rc, a); err != nil {
			return fmt.Errorf("iter %d on %v: %w", rc.Iter(), rc.Topo(), err)
		}
	}
	return nil
}

func TestSessionExpandSpawnsAndRedistributes(t *testing.T) {
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
	}}
	var iterated sync.Map
	app := testApp{
		init: withArrays(resize.Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2}),
		iterate: func(rc *Context) error {
			iterated.Store(fmt.Sprintf("%v-%d-%d", rc.Topo(), rc.Rank(), rc.Iter()), true)
			return verifyAll(rc)
		},
	}
	if _, err := runScripted(app, client, topo(1, 2), 3, WithJobID(1)); err != nil {
		t.Fatal(err)
	}
	// After the expansion all 4 ranks of the 2x2 grid must have iterated.
	for rank := 0; rank < 4; rank++ {
		if _, ok := iterated.Load(fmt.Sprintf("%v-%d-%d", topo(2, 2), rank, 1)); !ok {
			t.Errorf("rank %d never iterated on the expanded grid", rank)
		}
	}
	if !client.Ended {
		t.Error("job end never reported")
	}
	if len(client.Completed) != 1 {
		t.Errorf("ResizeComplete calls = %d, want 1", len(client.Completed))
	}
}

func TestSessionShrinkRetiresRanks(t *testing.T) {
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionShrink, Target: topo(1, 2)},
	}}
	var retired atomic.Int32
	app := testApp{init: withArrays(resize.Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2}), iterate: verifyAll}
	_, err := runScripted(app, client, topo(2, 2), 3, WithJobID(2), WithLogger(func(ev Event) {
		if ev.Kind == EventRetire {
			retired.Add(1)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n := retired.Load(); n != 2 {
		t.Errorf("%d ranks retired, want 2", n)
	}
	if !client.Ended {
		t.Error("job end never reported")
	}
}

func TestSessionExpandThenShrinkFigure3aPattern(t *testing.T) {
	// The Figure 3(a) trajectory at miniature scale: grow 2 -> 4 -> 6, then
	// shrink back to 4 after a failed expansion, holding data intact
	// throughout.
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
		{Action: scheduler.ActionExpand, Target: topo(2, 3)},
		{Action: scheduler.ActionShrink, Target: topo(2, 2)},
		{Action: scheduler.ActionNone},
	}}
	app := testApp{init: withArrays(resize.Array{Name: "A", M: 12, N: 12, MB: 2, NB: 2}), iterate: verifyAll}
	rep, err := runScripted(app, client, topo(1, 2), 5, WithJobID(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalTopo != topo(2, 2) {
		t.Errorf("final topology %v, want 2x2", rep.FinalTopo)
	}
	if len(client.Completed) != 3 {
		t.Errorf("ResizeComplete calls = %d, want 3", len(client.Completed))
	}
}

func TestSessionMultipleArraysAndReplicated(t *testing.T) {
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
	}}
	arrays := withArrays(resize.Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2}, resize.Array{Name: "B", M: 6, N: 4, MB: 2, NB: 2})
	app := testApp{
		init: func(rc *Context) error {
			rc.SetReplicated("x", []float64{7, 8, 9})
			return arrays(rc)
		},
		iterate: func(rc *Context) error {
			for _, name := range []string{"A", "B"} {
				a, ok := rc.Array(name)
				if !ok {
					return fmt.Errorf("array %s missing", name)
				}
				if err := verifyByGlobal(rc, a); err != nil {
					return err
				}
			}
			if x := rc.Replicated("x"); len(x) != 3 || x[0] != 7 {
				return fmt.Errorf("replicated x = %v on rank %d", x, rc.Rank())
			}
			return nil
		},
	}
	if _, err := runScripted(app, client, topo(1, 2), 2, WithJobID(4)); err != nil {
		t.Fatal(err)
	}
}

func TestExpandRebroadcastsReplicatedToAllRanks(t *testing.T) {
	// A replicated buffer set on rank 0 alone must reach every rank of the
	// grown processor set at expansion — the newly spawned ranks through the
	// child bootstrap AND the pre-existing non-root ranks, which would
	// otherwise keep silently divergent replicated state.
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
	}}
	var divergent sync.Map
	app := testApp{
		init: withArrays(resize.Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2}),
		iterate: func(rc *Context) error {
			if rc.Iter() >= 1 {
				// After the expansion every rank must see rank 0's value.
				if got := rc.Replicated("tally"); len(got) != 2 || got[0] != 41 || got[1] != 43 {
					divergent.Store(rc.Rank(), append([]float64{}, got...))
				}
			}
			if rc.Iter() == 0 && rc.Rank() == 0 {
				rc.SetReplicated("tally", []float64{41, 43})
			}
			return nil
		},
	}
	if _, err := runScripted(app, client, topo(1, 2), 2, WithJobID(13)); err != nil {
		t.Fatal(err)
	}
	divergent.Range(func(k, v any) bool {
		t.Errorf("rank %v has replicated tally %v after expansion, want [41 43]", k, v)
		return true
	})
}

func TestShrinkRebroadcastsReplicatedToSurvivors(t *testing.T) {
	// A replicated buffer that diverged on a non-root rank must be
	// overwritten with rank 0's authoritative copy when the processor set
	// shrinks, mirroring the expansion-side re-broadcast.
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionShrink, Target: topo(1, 2)},
	}}
	var divergent sync.Map
	arrays := withArrays(resize.Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2})
	app := testApp{
		init: func(rc *Context) error {
			// Every rank starts with a divergent value; rank 0's is canonical.
			rc.SetReplicated("tally", []float64{float64(7 + rc.Rank()*100)})
			return arrays(rc)
		},
		iterate: func(rc *Context) error {
			if rc.Iter() >= 1 {
				if got := rc.Replicated("tally"); len(got) != 1 || got[0] != 7 {
					divergent.Store(rc.Rank(), append([]float64{}, got...))
				}
			}
			return nil
		},
	}
	if _, err := runScripted(app, client, topo(2, 2), 2, WithJobID(16)); err != nil {
		t.Fatal(err)
	}
	divergent.Range(func(k, v any) bool {
		t.Errorf("surviving rank %v has replicated tally %v after shrink, want [7]", k, v)
		return true
	})
}

func TestReplicatedUpdatesReachSecondGeneration(t *testing.T) {
	// Replicated state replaced collectively between two expansions must
	// reach the second generation of spawned ranks with its latest value.
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(1, 2)},
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
		{Action: scheduler.ActionNone},
	}}
	arrays := withArrays(resize.Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2})
	app := testApp{
		init: func(rc *Context) error {
			rc.SetReplicated("x", []float64{0})
			return arrays(rc)
		},
		iterate: func(rc *Context) error {
			want := float64(rc.Iter()) // value set at end of the previous iteration
			if x := rc.Replicated("x"); len(x) != 1 || x[0] != want {
				return fmt.Errorf("rank %d iter %d on %v: x=%v want [%v]", rc.Rank(), rc.Iter(), rc.Topo(), x, want)
			}
			rc.SetReplicated("x", []float64{float64(rc.Iter() + 1)})
			return nil
		},
	}
	if _, err := runScripted(app, client, topo(1, 1), 3, WithJobID(14)); err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceCountsIterationsWithoutContact(t *testing.T) {
	// Iterations between resize points count without contacting the
	// scheduler.
	client := &resize.ScriptedClient{}
	rep, err := runScripted(testApp{}, client, topo(1, 2), 3, WithJobID(15), WithResizeEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 3 {
		t.Errorf("%d iterations, want 3", rep.Iterations)
	}
	// Both ranks reach one resize point; only rank 0 contacts the scheduler.
	if client.Contacts != 1 {
		t.Errorf("scheduler contacted %d times, want 1 (only resize points contact)", client.Contacts)
	}
}

func TestSessionLogAveragesAcrossRanks(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		rc, err := newRank(resize.NullClient{}, 5, c, topo(1, 2))
		if err != nil {
			return err
		}
		if avg := rc.logIteration(float64(c.Rank() + 1)); avg != 1.5 { // times 1 and 2
			return fmt.Errorf("avg %v", avg)
		}
		if c.Rank() == 0 {
			if len(rc.log) != 1 || rc.log[0].AvgTime != 1.5 {
				return fmt.Errorf("records %v", rc.log)
			}
		} else if len(rc.log) != 0 {
			return fmt.Errorf("non-root rank has log records")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSessionNullClientNeverResizes(t *testing.T) {
	app := testApp{iterate: func(rc *Context) error {
		if rc.Topo() != topo(1, 2) {
			return fmt.Errorf("null client resized to %v", rc.Topo())
		}
		return nil
	}}
	rep, err := runScripted(app, resize.NullClient{}, topo(1, 2), 3, WithJobID(6))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 3 || rep.Resizes != 0 || rep.FinalTopo != topo(1, 2) {
		t.Errorf("%d iterations, %d resizes, final %v", rep.Iterations, rep.Resizes, rep.FinalTopo)
	}
}

func TestExpandValidatesTarget(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		rc, err := newRank(resize.NullClient{}, 7, c, topo(1, 2))
		if err != nil {
			return err
		}
		if err := rc.expand(topo(1, 2)); err == nil {
			return fmt.Errorf("non-growing expand accepted")
		}
		if _, err := rc.shrink(topo(2, 2)); err == nil {
			return fmt.Errorf("non-shrinking shrink accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedExpansionGrowsChain(t *testing.T) {
	// 1 -> 2 -> 4 -> 6 ranks across three expansions, data verified at each.
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(1, 2)},
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
		{Action: scheduler.ActionExpand, Target: topo(2, 3)},
	}}
	app := testApp{init: withArrays(resize.Array{Name: "A", M: 12, N: 12, MB: 2, NB: 2}), iterate: verifyAll}
	rep, err := runScripted(app, client, topo(1, 1), 5, WithJobID(8))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalTopo.Count() != 6 {
		t.Fatalf("final topology %v, want 6 ranks", rep.FinalTopo)
	}
}

// countPlanBuilds starts the test on an empty plan cache and counts the
// plans built until it ends; delay stretches every build so concurrent
// callers overlap it.
func countPlanBuilds(t *testing.T, delay time.Duration) *atomic.Int32 {
	t.Helper()
	var builds atomic.Int32
	clearPlans()
	buildPlan = func(arrays []*resize.Array, from, to grid.Topology) (*redistrib.MultiPlan, error) {
		builds.Add(1)
		time.Sleep(delay)
		return newMultiPlan(arrays, from, to)
	}
	t.Cleanup(func() {
		buildPlan = newMultiPlan
		clearPlans()
	})
	return &builds
}

func clearPlans() {
	plans.Lock()
	clear(plans.m)
	plans.Unlock()
}

func cachedPlans() int {
	plans.Lock()
	defer plans.Unlock()
	return len(plans.m)
}

func TestPlanCacheReusedAcrossOscillation(t *testing.T) {
	// The paper's shrink/expand cycles oscillate between the same two grids,
	// and later jobs repeat the shapes of earlier ones: every rank in the
	// process executes one shared plan per layout tuple.
	a3 := topo(2, 3)
	a2 := topo(2, 2)
	builds := countPlanBuilds(t, 0)
	job := func(jobID int) (*redistrib.MultiPlan, error) {
		var shared *redistrib.MultiPlan
		err := mpi.Run(6, func(c *mpi.Comm) error {
			rc, err := newRank(resize.NullClient{}, jobID, c, a3)
			if err != nil {
				return err
			}
			if err := withArrays(resize.Array{Name: "A", M: 12, N: 12, MB: 2, NB: 2}, resize.Array{Name: "B", M: 8, N: 10, MB: 2, NB: 2})(rc); err != nil {
				return err
			}
			for cycle := 0; cycle < 3; cycle++ {
				if err := rc.redistribute(rc.comm, a3, a2); err != nil {
					return err
				}
				if err := rc.redistribute(rc.comm, a2, a3); err != nil {
					return err
				}
			}
			// Back on the original topology: data must be intact.
			if err := verifyAll(rc); err != nil {
				return err
			}
			if c.Rank() == 0 {
				shared, err = planFor(rc.Arrays(), a3, a2)
			}
			return err
		})
		return shared, err
	}
	mp1, err := job(10)
	if err != nil {
		t.Fatal(err)
	}
	mp2, err := job(11)
	if err != nil {
		t.Fatal(err)
	}
	if mp1 == nil || mp1 != mp2 {
		t.Fatalf("jobs in separate worlds got plans %p and %p, want one shared plan", mp1, mp2)
	}
	// Six ranks of two jobs, six cycles each: one build per direction.
	if n := builds.Load(); n != 2 {
		t.Fatalf("built %d plans, want 2 (one per direction)", n)
	}

	// Another array set is another layout tuple.
	other, err := planFor([]*resize.Array{{Name: "A", M: 12, N: 12, MB: 2, NB: 2}}, a3, a2)
	if err != nil {
		t.Fatal(err)
	}
	if other == mp1 {
		t.Fatal("a different array set got the cached plan")
	}
	// Names are not part of the tuple: the same shapes share the plan.
	renamed, err := planFor([]*resize.Array{{Name: "X", M: 12, N: 12, MB: 2, NB: 2}, {Name: "Y", M: 8, N: 10, MB: 2, NB: 2}}, a3, a2)
	if err != nil {
		t.Fatal(err)
	}
	if renamed != mp1 {
		t.Fatal("the same layout tuple under other names got another plan")
	}

	// The cache is bounded: many distinct shapes never grow it past maxPlans.
	for i := 0; i < 3*maxPlans; i++ {
		if _, err := planFor([]*resize.Array{{Name: "A", M: 4 + i, N: 4, MB: 2, NB: 2}}, a3, a2); err != nil {
			t.Fatal(err)
		}
		if n := cachedPlans(); n > maxPlans {
			t.Fatalf("plan cache holds %d entries after %d shapes, bound %d", n, i+1, maxPlans)
		}
	}
}

func TestPlanCacheHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not asserted under -race")
	}
	countPlanBuilds(t, 0)
	arrays := []*resize.Array{{Name: "A", M: 12, N: 12, MB: 2, NB: 2}, {Name: "B", M: 8, N: 10, MB: 2, NB: 2}}
	if _, err := planFor(arrays, topo(2, 3), topo(2, 2)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := planFor(arrays, topo(2, 3), topo(2, 2)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a cache hit allocates %v times, want 0", allocs)
	}
}

func TestPlanCacheBuildsOnceAcrossSpawn(t *testing.T) {
	// The ranks of an expanding job and the ranks it spawns all ask for the
	// same plan at once: it is built once and every rank executes it.
	from, to := topo(2, 2), topo(2, 3)
	builds := countPlanBuilds(t, time.Millisecond)
	var mu sync.Mutex
	var seen []*redistrib.MultiPlan
	app := testApp{
		init: withArrays(resize.Array{Name: "A", M: 30, N: 18, MB: 3, NB: 2}),
		onResize: func(rc *Context, ev ResizeEvent) error {
			if err := verifyAll(rc); err != nil {
				return err
			}
			mp, err := planFor(rc.Arrays(), from, to)
			mu.Lock()
			seen = append(seen, mp)
			mu.Unlock()
			return err
		},
	}
	client := &resize.ScriptedClient{Script: []scheduler.Decision{{Action: scheduler.ActionExpand, Target: to}}}
	if _, err := runScripted(app, client, from, 1, WithJobID(12)); err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("plan built %d times, want 1", n)
	}
	if len(seen) != to.Count() {
		t.Fatalf("%d ranks finished, want %d", len(seen), to.Count())
	}
	for r, mp := range seen {
		if mp == nil || mp != seen[0] {
			t.Fatalf("rank %d executed plan %p, rank 0 %p", r, mp, seen[0])
		}
	}
}

func TestRedistObservationsRecorded(t *testing.T) {
	from := topo(2, 3)
	to := topo(2, 2)
	obsCh := make(chan []perfmodel.RedistObservation, 1)
	err := mpi.Run(6, func(c *mpi.Comm) error {
		rc, err := newRank(resize.NullClient{}, 11, c, from)
		if err != nil {
			return err
		}
		fillByGlobal(rc, rc.RegisterArray("A", 12, 12, 2, 2))
		if err := rc.redistribute(rc.comm, from, to); err != nil {
			return err
		}
		if err := rc.redistribute(rc.comm, to, from); err != nil {
			return err
		}
		if c.Rank() == 0 {
			obsCh <- rc.redistObs
		} else if len(rc.redistObs) != 0 {
			return fmt.Errorf("rank %d recorded observations", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := <-obsCh
	if len(obs) != 2 {
		t.Fatalf("%d observations, want 2", len(obs))
	}
	// 2x3 -> 2x2: rows 2->2 is 1 step, cols 3->2 is 3 steps.
	for i, o := range obs {
		if o.Bytes <= 0 {
			t.Errorf("observation %d moved no network bytes: %+v", i, o)
		}
		if o.Steps != 3 {
			t.Errorf("observation %d has %d steps, want 3", i, o.Steps)
		}
		if o.MinProcs != 4 {
			t.Errorf("observation %d MinProcs = %d, want 4", i, o.MinProcs)
		}
		if o.Seconds < 0 {
			t.Errorf("observation %d negative duration", i)
		}
	}
	// The calibration hook must accept the measured log (real goroutine runs
	// are fast, so some observations may fall under the latency floor and be
	// skipped — it just must not use more than it was given).
	p := perfmodel.SystemX()
	if used := p.CalibrateRedist(obs); used < 0 || used > len(obs) {
		t.Errorf("calibration used %d of %d observations", used, len(obs))
	}
}

func TestExpandRecordsObservation(t *testing.T) {
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
	}}
	app := testApp{init: withArrays(resize.Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2})}
	rep, err := runScripted(app, client, topo(1, 2), 2, WithJobID(12))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.RedistObservations); n != 1 {
		t.Errorf("rank 0 recorded %d observations after one expansion, want 1", n)
	}
}
