package rebalance

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// twin is the oracle for carried views: the core ticks the long-lived
// Rebalancer, and every tick is planned again by a Rebalancer built fresh
// for it from the same snapshot. The two plans must be DeepEqual. The
// counters record which paths the ticks took, so a run that never carried
// a view, jumped a rung or shrank a job cannot pass as a check of them.
type twin struct {
	*Rebalancer
	t     *testing.T
	fresh func() *Rebalancer
	label string

	ticks, carried, jumps, shrinks, collisions int
}

func (tw *twin) Rebalance(snap scheduler.ClusterSnapshot) {
	var got, want Plan
	tw.OnPlan = func(p Plan) { got = p }
	built := tw.built
	tw.Rebalancer.Rebalance(snap)
	f := tw.fresh()
	f.OnPlan = func(p Plan) { want = p }
	f.Rebalance(snap)
	if !reflect.DeepEqual(got, want) {
		tw.t.Fatalf("%s, tick at %.1f: the carried views planned\n %+v\na fresh planner planned\n %+v", tw.label, snap.Now, got, want)
	}
	tw.ticks++
	tw.carried += len(tw.jobs) - (tw.built - built)
	for _, e := range tw.exps {
		if e.next > 1 {
			tw.jumps++
		}
	}
	for _, d := range got.Directives {
		if !d.Expand() {
			tw.shrinks++
		}
	}
}

// oraclePlanner configures a planner for a seed: with or without each
// hook (a Predict that cannot price every job, a RedistCost that knows
// only some), and a nonzero emission threshold on some seeds.
func oraclePlanner(seed int64) *Rebalancer {
	r := New(nil)
	if seed%4 != 3 {
		r.Predict = func(id int, t grid.Topology) (float64, bool) {
			p := float64(t.Count())
			return 1 + float64(id%4) + (40+10*float64(id%7))/p + 0.02*float64(id%3)*p, id%5 != 4
		}
	}
	if seed%3 != 2 {
		r.RedistCost = func(id int, from, to grid.Topology) (float64, bool) {
			return 0.05 * float64(from.Count()+to.Count()), id%3 != 0
		}
	}
	if seed%5 == 4 {
		r.MinGainSeconds = 2
	}
	return r
}

var oracleChains = [][]grid.Topology{
	{grid.Row1D(1), grid.Row1D(2), grid.Row1D(4), grid.Row1D(8), grid.Row1D(16), grid.Row1D(32)},
	{{Rows: 1, Cols: 2}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 4}, {Rows: 4, Cols: 4}, {Rows: 4, Cols: 8}},
	{grid.Row1D(2), grid.Row1D(4), grid.Row1D(6)},
}

// carryHarness drives one core through random ops.
type carryHarness struct {
	t       *testing.T
	tw      *twin
	core    *scheduler.Core
	rng     *rand.Rand
	now     float64
	pending map[int]bool // jobs between a resize decision and ResizeComplete
	model   map[int][3]float64
}

func (h *carryHarness) running(pendingToo bool) []*scheduler.Job {
	var out []*scheduler.Job
	for _, j := range h.core.Jobs() {
		if j.State == scheduler.Running && (pendingToo || !h.pending[j.ID]) {
			out = append(out, j)
		}
	}
	return out
}

func (h *carryHarness) pick(jobs []*scheduler.Job) *scheduler.Job {
	if len(jobs) == 0 {
		return nil
	}
	return jobs[h.rng.Intn(len(jobs))]
}

func (h *carryHarness) submit() {
	chain := oracleChains[h.rng.Intn(len(oracleChains))]
	j, _, err := h.core.Submit(scheduler.JobSpec{
		Name: "job", App: "lu", Iterations: 3 + h.rng.Intn(38), Priority: h.rng.Intn(2),
		InitialTopo: chain[h.rng.Intn(2)], Chain: chain,
	}, h.now)
	if err != nil {
		h.t.Fatal(err)
	}
	// Serial seconds, parallel seconds and a contention term that puts some
	// jobs' knee inside their chain.
	m := [3]float64{0.5 + 3*h.rng.Float64(), 20 + 200*h.rng.Float64(), 0}
	if h.rng.Intn(10) < 3 {
		m[2] = 0.05 + 0.5*h.rng.Float64()
	}
	h.model[j.ID] = m
}

// contact reports one noisy iteration of the job on its current topology.
func (h *carryHarness) contact(j *scheduler.Job) scheduler.Decision {
	m, p := h.model[j.ID], float64(j.Topo.Count())
	iter := (m[0] + m[1]/p + m[2]*p) * (0.85 + 0.3*h.rng.Float64())
	d, err := h.core.Contact(j.ID, j.Topo, iter, 0, h.now)
	if err != nil {
		h.t.Fatal(err)
	}
	if d.Action != scheduler.ActionNone {
		h.pending[j.ID] = true
	}
	return d
}

func (h *carryHarness) complete(j *scheduler.Job) {
	if _, err := h.core.ResizeComplete(j.ID, 0.1+h.rng.Float64(), h.now); err != nil {
		h.t.Fatal(err)
	}
	delete(h.pending, j.ID)
}

func (h *carryHarness) tick() {
	if err := h.core.Rebalance(h.now); err != nil {
		h.t.Fatal(err)
	}
}

// rewind persists the core and restores it twice, into two new cores
// planned by the same Rebalancer. Each restored timeline contacts every
// settled job once, with its own noise, and ticks. A job that holds its
// configuration then has the same id, topology, remaining iterations and
// stamp in both timelines, but not the same times: only the change of
// running set tells the second tick that the first one's views are stale.
func (h *carryHarness) rewind() {
	states := []*scheduler.CoreState{h.core.PersistState(), h.core.PersistState()}
	pending := maps.Clone(h.pending)
	for _, st := range states {
		core, err := scheduler.NewCoreFromState(st)
		if err != nil {
			h.t.Fatal(err)
		}
		core.SetArbiter(h.tw)
		h.core, h.pending = core, maps.Clone(pending)
		for _, j := range h.running(false) {
			if h.contact(j).Action != scheduler.ActionNone {
				h.complete(j)
			}
		}
		h.countCollisions()
		h.tick()
	}
}

// countCollisions counts the last tick's views whose reuse key matches a
// job of the current core.
func (h *carryHarness) countCollisions() {
	for i := range h.tw.jobs {
		v := &h.tw.jobs[i]
		j, ok := h.core.Job(v.id)
		if !ok || j.State != scheduler.Running || j.Topo != v.topo || j.Profile.Stamp() != v.stamp {
			continue
		}
		done := 0
		for _, visit := range j.Profile.Visits {
			done += len(visit.IterTimes)
		}
		if max(j.Spec.Iterations-done, 1) == v.remIters {
			h.tw.collisions++
		}
	}
}

// TestCarriedPlanMatchesFreshPlan holds the carried views to their
// definition: over random Submit/Contact/ResizeComplete/Finish/Rebalance
// sequences, with a persist-and-restore round trip in every seed, a
// Rebalancer that carries its views, shrink candidates and bids from tick
// to tick plans exactly what one built fresh for each tick plans.
func TestCarriedPlanMatchesFreshPlan(t *testing.T) {
	tw := &twin{t: t}
	for seed := int64(1); seed <= 200; seed++ {
		tw.Rebalancer, tw.fresh = oraclePlanner(seed), func() *Rebalancer { return oraclePlanner(seed) }
		h := &carryHarness{
			t: t, tw: tw, core: scheduler.NewCore(64, true), rng: rand.New(rand.NewSource(seed)),
			pending: map[int]bool{}, model: map[int][3]float64{},
		}
		h.core.SetArbiter(tw)
		tw.label = fmt.Sprintf("seed %d", seed)
		const ops = 160
		for op := 0; op < ops; op++ {
			h.now += 1 + 5*h.rng.Float64()
			if op == ops/2 {
				h.rewind()
			}
			switch x := h.rng.Intn(100); {
			case x < 15:
				h.submit()
			case x < 60:
				if j := h.pick(h.running(false)); j != nil {
					h.contact(j)
				}
			case x < 75:
				var pend []*scheduler.Job
				for _, j := range h.running(true) {
					if h.pending[j.ID] {
						pend = append(pend, j)
					}
				}
				if j := h.pick(pend); j != nil {
					h.complete(j)
				}
			case x < 82:
				if j := h.pick(h.running(true)); j != nil {
					if _, err := h.core.Finish(j.ID, h.now); err != nil {
						t.Fatal(err)
					}
					delete(h.pending, j.ID)
				}
			default:
				h.tick()
			}
		}
	}
	t.Logf("%d ticks: %d views carried, %d multi-rung expansions, %d shrinks, %d reuse keys across a restore",
		tw.ticks, tw.carried, tw.jumps, tw.shrinks, tw.collisions)
	if tw.carried == 0 || tw.jumps == 0 || tw.shrinks == 0 || tw.collisions == 0 {
		t.Fatal("the seeds no longer exercise every path the oracle is for; strengthen them")
	}

	// A hand-built running set ticked twice. In between, one job records a
	// redistribution cost out of its current topology: nothing but the
	// profile's stamp says its view is stale, and the cost kills its plan.
	views := []scheduler.ContactView{
		runningJob(1, 1, []int{4, 8, 16}, [][2]float64{{4, 16}, {8, 8}}, 3),
		runningJob(2, 1, []int{4, 8, 16, 32}, [][2]float64{{4, 6}, {8, 4}}, 100),
	}
	tw.Rebalancer, tw.fresh, tw.label = New(nil), func() *Rebalancer { return New(nil) }, "hand-built set"
	tw.Rebalance(snapOf(32, 64, nil, views...))
	before := tw.Directives()
	views[0].Profile.RecordRedist(grid.Row1D(8), grid.Row1D(16), 50)
	tw.Rebalance(snapOf(32, 64, nil, views...))
	if reflect.DeepEqual(before, tw.Directives()) {
		t.Fatalf("fixture: the recorded cost left the plan unchanged: %+v", before)
	}
}
