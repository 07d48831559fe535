package rebalance

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// runningJob builds a ContactView with a profile holding one visit per
// (procs, seconds) pair, in order; the last pair is the current
// configuration. All topologies are 1D rows.
func runningJob(id, prio int, chain []int, visits [][2]float64, remIters int) scheduler.ContactView {
	p := scheduler.NewProfile()
	var topo grid.Topology
	for _, v := range visits {
		topo = grid.Row1D(int(v[0]))
		p.RecordIteration(topo, v[1])
	}
	var ch []grid.Topology
	for _, n := range chain {
		ch = append(ch, grid.Row1D(n))
	}
	return scheduler.ContactView{
		ID: id, Priority: prio, Topo: topo, Chain: ch, Profile: p,
		RemainingIters: remIters,
	}
}

func snapOf(idle, total int, queued []scheduler.QueuedView, views ...scheduler.ContactView) scheduler.ClusterSnapshot {
	running := scheduler.RunningViews(views)
	tenants, pendingFree := running.Aggregates()
	return scheduler.ClusterSnapshot{
		Now:         100,
		Total:       total,
		Idle:        idle,
		Caller:      scheduler.ContactView{ID: -1},
		Queued:      queued,
		Tenants:     tenants,
		PendingFree: pendingFree,
		Cluster:     running,
	}
}

// TestPlanExpandsBestPerProc: two jobs compete for too few idle
// processors; the one with the higher predicted gain per processor wins
// the budget and the other gets nothing.
func TestPlanExpandsBestPerProc(t *testing.T) {
	// Job 1: strongly scalable (T ~ 64/p), next rung 8 -> 16 saves
	// 4 s/iter over 8 procs = 0.5/proc, 100 iters left.
	j1 := runningJob(1, 1, []int{4, 8, 16, 32}, [][2]float64{{4, 16}, {8, 8}}, 100)
	// Job 2: shallow curve (T ~ 2 + 16/p), 8 -> 16 saves 1 s/iter.
	j2 := runningJob(2, 1, []int{4, 8, 16, 32}, [][2]float64{{4, 6}, {8, 4}}, 100)

	r := New(nil)
	r.Rebalance(snapOf(8, 64, nil, j1, j2))

	ds := r.Directives()
	if len(ds) != 1 {
		t.Fatalf("want exactly one directive (budget 8), got %+v", ds)
	}
	if ds[0].JobID != 1 || !ds[0].Expand() || ds[0].To != grid.Row1D(16) {
		t.Fatalf("want job 1 expand to 16x1, got %+v", ds[0])
	}
	if ds[0].Gain <= 0 {
		t.Fatalf("emitted directive with non-positive gain: %+v", ds[0])
	}
}

// TestPlanJumpsMultipleRungs: with ample budget and a curve fitted from
// three visits, the planner sends a job several chain rungs ahead in one
// directive — the model-guided jump one-step probing cannot make.
func TestPlanJumpsMultipleRungs(t *testing.T) {
	// T(p) = 1 + 96/p measured at 4, 8, 16; rungs continue 32, 64.
	j := runningJob(1, 1, []int{4, 8, 16, 32, 64}, [][2]float64{{4, 25}, {8, 13}, {16, 7}}, 50)
	r := New(nil)
	r.Rebalance(snapOf(64, 128, nil, j))

	ds := r.Directives()
	if len(ds) != 1 || ds[0].To != grid.Row1D(64) {
		t.Fatalf("want a single jump to 64x1, got %+v", ds)
	}
}

// TestPlanShrinksPastKnee: a job measured slower on more processors has
// its knee below the current allocation; the planner shrinks it back to
// the faster visited configuration even with an empty queue.
func TestPlanShrinksPastKnee(t *testing.T) {
	// 16 procs were measured slower than 8: contention dominates.
	j := runningJob(1, 1, []int{4, 8, 16}, [][2]float64{{4, 10}, {8, 7}, {16, 9}}, 40)
	r := New(nil)
	r.Rebalance(snapOf(0, 32, nil, j))

	ds := r.Directives()
	if len(ds) != 1 || ds[0].Expand() {
		t.Fatalf("want one shrink directive, got %+v", ds)
	}
	if ds[0].To != grid.Row1D(8) {
		t.Fatalf("want shrink to the faster visited 8x1, got %+v", ds[0])
	}
}

// TestPlanReservesQueueHead: the queue head's processor need is carved
// out of the expansion budget, so an expansion that would fit the raw
// idle pool is suppressed when the head needs those processors.
func TestPlanReservesQueueHead(t *testing.T) {
	j := runningJob(1, 1, []int{4, 8, 16}, [][2]float64{{4, 16}, {8, 8}}, 100)
	head := []scheduler.QueuedView{{ID: 9, Priority: 1, Need: 8, Submit: 95}}

	r := New(nil)
	r.Rebalance(snapOf(8, 32, head, j)) // idle 8, head needs all 8
	if ds := r.Directives(); len(ds) != 0 {
		t.Fatalf("expansion must be suppressed for the queue head, got %+v", ds)
	}

	r.Rebalance(snapOf(16, 32, head, j)) // idle 16: 8 reserved, 8 to spend
	ds := r.Directives()
	if len(ds) != 1 || ds[0].To != grid.Row1D(16) {
		t.Fatalf("want expansion from the surplus beyond the head's need, got %+v", ds)
	}
}

// TestPlanChargesRedistCost: a measured redistribution cost larger than
// the predicted iteration savings kills the directive.
func TestPlanChargesRedistCost(t *testing.T) {
	j := runningJob(1, 1, []int{4, 8, 16}, [][2]float64{{4, 16}, {8, 8}}, 3)
	// 8 -> 16 saves 4 s/iter * 3 iters = 12 s; make the move cost 50 s.
	j.Profile.RecordRedist(grid.Row1D(8), grid.Row1D(16), 50)

	r := New(nil)
	r.Rebalance(snapOf(16, 64, nil, j))
	if ds := r.Directives(); len(ds) != 0 {
		t.Fatalf("directive must not survive a dominating redist cost, got %+v", ds)
	}

	// The RedistCost hook is consulted for unmeasured moves the same way.
	j2 := runningJob(2, 1, []int{4, 8, 16}, [][2]float64{{4, 16}, {8, 8}}, 3)
	r2 := New(nil)
	r2.RedistCost = func(jobID int, from, to grid.Topology) (float64, bool) { return 50, true }
	r2.Rebalance(snapOf(16, 64, nil, j2))
	if ds := r2.Directives(); len(ds) != 0 {
		t.Fatalf("hook-estimated redist cost must gate too, got %+v", ds)
	}
}

// TestPlanSkipsMidResize: a job with an in-flight shrink (PendingFree >
// 0) is about to change topology and must not be planned over.
func TestPlanSkipsMidResize(t *testing.T) {
	j := runningJob(1, 1, []int{4, 8, 16}, [][2]float64{{4, 16}, {8, 8}}, 100)
	j.PendingFree = 4
	r := New(nil)
	r.Rebalance(snapOf(16, 64, nil, j))
	if ds := r.Directives(); len(ds) != 0 {
		t.Fatalf("mid-resize job must be skipped, got %+v", ds)
	}
}

// TestDecideDeliversDirective: the caller's directive is consumed at its
// contact; a second contact falls through to the reactive arbiter.
func TestDecideDeliversDirective(t *testing.T) {
	j := runningJob(1, 1, []int{4, 8, 16}, [][2]float64{{4, 16}, {8, 8}}, 100)
	r := New(nil)
	r.Rebalance(snapOf(16, 64, nil, j))
	if len(r.Directives()) != 1 {
		t.Fatalf("setup: want one directive, got %+v", r.Directives())
	}

	snap := snapOf(16, 64, nil, j)
	snap.Caller = j
	d := r.Decide(snap)
	if d.Action != scheduler.ActionExpand || d.Target != grid.Row1D(16) {
		t.Fatalf("want planned expansion to 16x1, got %+v", d)
	}
	if len(r.Directives()) != 0 {
		t.Fatalf("directive must be consumed on delivery, got %+v", r.Directives())
	}
}

// TestDecideDropsStaleDirective: a caller whose topology no longer
// matches the plan's From gets the reactive decision and the directive
// is retired.
func TestDecideDropsStaleDirective(t *testing.T) {
	j := runningJob(1, 1, []int{4, 8, 16}, [][2]float64{{4, 16}, {8, 8}}, 100)
	r := New(nil)
	r.Rebalance(snapOf(16, 64, nil, j))

	moved := runningJob(1, 1, []int{4, 8, 16}, [][2]float64{{8, 8}, {4, 16}}, 100) // now on 4x1
	snap := snapOf(16, 64, nil, moved)
	snap.Caller = moved
	r.Decide(snap)
	if len(r.Directives()) != 0 {
		t.Fatalf("stale directive must be dropped, got %+v", r.Directives())
	}
}

// TestDecideHoldsUnfundedExpansion: an expansion directive that does not
// fit the current idle pool stays pending instead of being consumed.
func TestDecideHoldsUnfundedExpansion(t *testing.T) {
	j := runningJob(1, 1, []int{4, 8, 16}, [][2]float64{{4, 16}, {8, 8}}, 100)
	r := New(nil)
	r.Rebalance(snapOf(16, 64, nil, j))

	snap := snapOf(2, 64, nil, j) // pool shrank below the directive's need
	snap.Caller = j
	r.Decide(snap)
	if len(r.Directives()) != 1 {
		t.Fatalf("unfunded expansion must stay pending, got %+v", r.Directives())
	}
}

// TestPlanDeterministic: identical snapshots produce bit-identical plans
// through fresh Rebalancers — the property OpRebalance replay relies on.
func TestPlanDeterministic(t *testing.T) {
	mkSnap := func() scheduler.ClusterSnapshot {
		return snapOf(24, 64,
			[]scheduler.QueuedView{{ID: 9, Priority: 2, Need: 8, Submit: 60}},
			runningJob(1, 1, []int{4, 8, 16, 32}, [][2]float64{{4, 16}, {8, 8}}, 100),
			runningJob(2, 1, []int{4, 8, 16, 32}, [][2]float64{{4, 6}, {8, 4}}, 100),
			runningJob(3, 2, []int{4, 8, 16}, [][2]float64{{4, 10}, {8, 7}, {16, 9}}, 40),
			runningJob(4, 0, []int{4, 8}, [][2]float64{{4, 5}}, 10),
		)
	}
	var plans []Plan
	for i := 0; i < 2; i++ {
		r := New(nil)
		r.OnPlan = func(p Plan) { plans = append(plans, p) }
		r.Rebalance(mkSnap())
	}
	if len(plans) != 2 || !reflect.DeepEqual(plans[0], plans[1]) {
		t.Fatalf("plans diverged:\n %+v\n %+v", plans[0], plans[1])
	}
	if len(plans[0].Directives) == 0 {
		t.Fatal("determinism fixture produced an empty plan; strengthen the fixture")
	}
}

// TestRebalanceScratchNotAliased: the planner reuses its working storage
// from tick to tick, so (1) what a tick handed out — the Plan given to
// OnPlan, the slice from Directives — must not change under the next tick,
// and (2) a reused jobView slot must carry nothing of the job that had it
// before: the second tick's views and plan equal a fresh Rebalancer's.
func TestRebalanceScratchNotAliased(t *testing.T) {
	// Tick 1's first job is rich in every per-view table: four measured
	// configurations, two shrink points, two rungs, recorded redist costs.
	rich := runningJob(1, 1, []int{2, 4, 8, 16, 32, 64}, [][2]float64{{2, 40}, {4, 21}, {16, 9}, {8, 12}}, 50)
	rich.Profile.RecordRedist(grid.Row1D(8), grid.Row1D(16), 0.5)
	rich.Profile.RecordRedist(grid.Row1D(8), grid.Row1D(4), 0.25)
	tick1 := snapOf(40, 128, nil,
		rich,
		runningJob(2, 1, []int{4, 8, 16, 32}, [][2]float64{{4, 16}, {8, 8}}, 100),
		runningJob(3, 2, []int{4, 8, 16}, [][2]float64{{4, 10}, {8, 7}, {16, 9}}, 40),
	)
	// By tick 2 job 1 has left: its slot goes to job 2, and the slot after
	// it to a newcomer with one visit, one rung and nothing to shrink to.
	tick2 := func() scheduler.ClusterSnapshot {
		s := snapOf(48, 128, nil,
			runningJob(2, 1, []int{4, 8, 16, 32}, [][2]float64{{4, 16}, {8, 8}}, 90),
			runningJob(4, 0, []int{4, 8}, [][2]float64{{4, 5}}, 10),
		)
		s.Now = 160
		return s
	}

	var plans []Plan
	r := New(nil)
	r.OnPlan = func(p Plan) { plans = append(plans, p) }
	r.Rebalance(tick1)
	handedOut := r.Directives()
	if len(plans) != 1 || len(handedOut) < 2 {
		t.Fatalf("fixture: tick 1 planned %+v", handedOut)
	}
	wantPlan := Plan{Now: plans[0].Now, Directives: slices.Clone(plans[0].Directives)}
	wantDirectives := slices.Clone(handedOut)

	r.Rebalance(tick2())
	if !reflect.DeepEqual(plans[0], wantPlan) {
		t.Fatalf("tick 1's plan changed under tick 2:\n was %+v\n now %+v", wantPlan, plans[0])
	}
	if !reflect.DeepEqual(handedOut, wantDirectives) {
		t.Fatalf("tick 1's Directives() changed under tick 2:\n was %+v\n now %+v", wantDirectives, handedOut)
	}

	fresh := New(nil)
	fresh.Rebalance(tick2())
	if !reflect.DeepEqual(r.Directives(), fresh.Directives()) || len(plans) != 2 ||
		!reflect.DeepEqual(plans[1].Directives, fresh.Directives()) {
		t.Fatalf("reused scratch changed the plan:\n reused %+v\n fresh  %+v", r.Directives(), fresh.Directives())
	}
	if len(r.jobs) != len(fresh.jobs) {
		t.Fatalf("%d views after tick 2, a fresh planner has %d", len(r.jobs), len(fresh.jobs))
	}
	for i := range r.jobs {
		got, want := &r.jobs[i], &fresh.jobs[i]
		if got.id != want.id || got.curve != want.curve || got.curTime != want.curTime ||
			!slices.Equal(got.rungs, want.rungs) || !slices.Equal(got.shrinks, want.shrinks) ||
			!slices.Equal(got.measured, want.measured) || !slices.Equal(got.redist, want.redist) {
			t.Fatalf("view %d carries residue of an earlier tick:\n reused %+v\n fresh  %+v", i, *got, *want)
		}
	}
}

// TestPlannedMovesAllocateNothing: delivering a planned shrink or expansion
// carries the directive's gain as an operand, so it allocates nothing, and
// the reason reads as the planned move.
func TestPlannedMovesAllocateNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		j    scheduler.ContactView
		want string
	}{
		{"shrink", runningJob(1, 1, []int{4, 8, 16}, [][2]float64{{4, 10}, {8, 7}, {16, 9}}, 40),
			"rebalance: planned shrink (past fitted knee, net gain %.3gs)"},
		{"expand", runningJob(1, 1, []int{4, 8, 16}, [][2]float64{{4, 16}, {8, 8}}, 100),
			"rebalance: planned expansion (net gain %.3gs)"},
	} {
		r := New(nil)
		r.Rebalance(snapOf(16, 64, nil, tc.j))
		ds := r.Directives()
		if len(ds) != 1 {
			t.Fatalf("%s: want one directive, got %+v", tc.name, ds)
		}
		snap := snapOf(16, 64, nil, tc.j)
		snap.Caller = tc.j
		var d scheduler.Decision
		if allocs := testing.AllocsPerRun(100, func() {
			r.directives[tc.j.ID] = ds[0]
			d = r.Decide(snap)
		}); allocs != 0 {
			t.Errorf("%s: %.2f allocations per delivery, want 0", tc.name, allocs)
		}
		if want := fmt.Sprintf(tc.want, ds[0].Gain); d.Target != ds[0].To || d.Text() != want {
			t.Errorf("%s: delivered %+v reading %q, want %v reading %q", tc.name, d, d.Text(), ds[0].To, want)
		}
	}
}
