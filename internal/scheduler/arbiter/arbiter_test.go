package arbiter

import (
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

func chain1D(counts ...int) []grid.Topology {
	out := make([]grid.Topology, len(counts))
	for i, p := range counts {
		out[i] = grid.Topology{Rows: 1, Cols: p}
	}
	return out
}

func submit(t *testing.T, c *scheduler.Core, name string, prio int, now float64, chain []grid.Topology) *scheduler.Job {
	t.Helper()
	j, _, err := c.Submit(scheduler.JobSpec{
		Name: name, App: "lu", ProblemSize: 8000, Iterations: 1 << 30,
		Priority: prio, InitialTopo: chain[0], Chain: chain,
	}, now)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// contact reports one iteration and immediately confirms any granted
// resize, returning the decision.
func contact(t *testing.T, c *scheduler.Core, j *scheduler.Job, iter, now float64) scheduler.Decision {
	t.Helper()
	d, err := c.Contact(j.ID, j.Topo, iter, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != scheduler.ActionNone {
		if _, err := c.ResizeComplete(j.ID, 0.1, now); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// grow walks a job up its chain with improving iteration times until it
// holds procs processors, leaving measured visits (shrink points) behind.
func grow(t *testing.T, c *scheduler.Core, j *scheduler.Job, procs int, now *float64) {
	t.Helper()
	iter := 100.0
	for j.Topo.Count() < procs {
		*now++
		d := contact(t, c, j, iter, *now)
		if d.Action != scheduler.ActionExpand {
			t.Fatalf("grow stalled at %v: %+v", j.Topo, d)
		}
		iter *= 0.7
	}
}

// TestCoordinatedShrinkFreesExactlyEnough: two donors whose shrink points
// individually cannot cover the queue head must both receive coordinated
// demands, a bystander must not over-shrink once the deficit is covered,
// and the head must start when the planned frees land.
func TestCoordinatedShrinkFreesExactlyEnough(t *testing.T) {
	arb := &BenefitRanked{}
	c := scheduler.NewCore(16, false)
	c.SetArbiter(arb)
	now := 0.0
	a := submit(t, c, "a", 0, now, chain1D(2, 4, 6))
	b := submit(t, c, "b", 0, now, chain1D(2, 4, 6))
	grow(t, c, a, 6, &now)
	grow(t, c, b, 6, &now)
	if c.Free() != 4 {
		t.Fatalf("free %d, want 4", c.Free())
	}
	head := submit(t, c, "head", 0, now, chain1D(12)) // needs 12 > 4 idle: queues
	if head.State != scheduler.Queued {
		t.Fatal("head should queue")
	}

	// Deficit is 8; each donor can free at most 4 (6 -> 2), so both must be
	// demanded to their deepest points.
	now++
	da, err := c.Contact(a.ID, a.Topo, 10, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if da.Action != scheduler.ActionShrink || da.Target.Count() != 2 {
		t.Fatalf("donor a: %+v, want shrink to 2", da)
	}
	now++
	db, err := c.Contact(b.ID, b.Topo, 10, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if db.Action != scheduler.ActionShrink || db.Target.Count() != 2 {
		t.Fatalf("donor b: %+v, want shrink to 2", db)
	}

	// With both shrinks in flight the deficit is covered: a re-contacting
	// donor must NOT be shrunk further (the published policy would keep
	// shrinking every caller while the queue is non-empty).
	now++
	if _, err := c.ResizeComplete(a.ID, 0.1, now); err != nil {
		t.Fatal(err)
	}
	dagain, err := c.Contact(a.ID, a.Topo, 10, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if dagain.Action != scheduler.ActionNone {
		t.Fatalf("covered deficit still shrinks: %+v", dagain)
	}

	now++
	started, err := c.ResizeComplete(b.ID, 0.1, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0].ID != head.ID {
		t.Fatalf("head did not start when coordinated frees landed: %v", started)
	}
}

// TestShrinkWaitsForAssignedDonors: a runner with no demand holds steady
// while the plan is assigned to other jobs.
func TestShrinkWaitsForAssignedDonors(t *testing.T) {
	arb := &BenefitRanked{}
	c := scheduler.NewCore(20, false)
	c.SetArbiter(arb)
	now := 0.0
	a := submit(t, c, "a", 0, now, chain1D(2, 4, 6))
	b := submit(t, c, "b", 0, now, chain1D(2, 4, 6))
	grow(t, c, a, 6, &now)
	grow(t, c, b, 6, &now)
	// 12 busy, 8 free; head needs 10 -> deficit 2: one donor suffices.
	head := submit(t, c, "head", 0, now, chain1D(10))
	if head.State != scheduler.Queued {
		t.Fatal("head should queue")
	}
	now++
	da, err := c.Contact(a.ID, a.Topo, 10, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	db, err := c.Contact(b.ID, b.Topo, 10, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	shrinks := 0
	for _, d := range []scheduler.Decision{da, db} {
		if d.Action == scheduler.ActionShrink {
			shrinks++
			if d.Target.Count() != 4 {
				t.Fatalf("donor shrank to %v, want the exact 2-proc step to 4", d.Target)
			}
		}
	}
	if shrinks != 1 {
		t.Fatalf("%d donors shrank, want exactly 1 (no over-shrink)", shrinks)
	}
}

// TestRankedExpansionYieldsToHigherBenefit: with one contested idle slot,
// the lower-benefit job must yield and the higher-benefit one expand.
func TestRankedExpansionYieldsToHigherBenefit(t *testing.T) {
	predict := func(jobID int, tp grid.Topology) (float64, bool) {
		if tp.Count() != 8 {
			return 0, false
		}
		if jobID == 0 {
			return 90, true // job a: 10s gain
		}
		return 40, true // job b: 60s gain
	}
	arb := &BenefitRanked{Predict: predict}
	c := scheduler.NewCore(12, false)
	c.SetArbiter(arb)
	now := 0.0
	a := submit(t, c, "a", 0, now, chain1D(4, 8))
	b := submit(t, c, "b", 0, now, chain1D(4, 8))
	filler := submit(t, c, "filler", 0, now, chain1D(4))
	// Measure both contenders while the pool is full (no expansion yet).
	now++
	if d := contact(t, c, a, 100, now); d.Action != scheduler.ActionNone {
		t.Fatalf("full pool should hold a steady: %+v", d)
	}
	if d := contact(t, c, b, 100, now); d.Action != scheduler.ActionNone {
		t.Fatalf("full pool should hold b steady: %+v", d)
	}
	// The filler ends: 4 idle procs, both next steps need 4 — contention.
	now++
	if _, err := c.Finish(filler.ID, now); err != nil {
		t.Fatal(err)
	}
	now++
	da := contact(t, c, a, 100, now)
	if da.Action != scheduler.ActionNone || !strings.Contains(da.Text(), "yielding idle pool to job 1") {
		t.Fatalf("low-benefit job got %+v, want yield to job 1", da)
	}
	now++
	db := contact(t, c, b, 100, now)
	if db.Action != scheduler.ActionExpand || db.Target.Count() != 8 {
		t.Fatalf("high-benefit job got %+v, want expansion to 8", db)
	}
}

// TestUnmeasuredExpansionStillProbes: without a predictor the caller's next
// configuration is unmeasured, and probing must survive ranking.
func TestUnmeasuredExpansionStillProbes(t *testing.T) {
	arb := &BenefitRanked{}
	c := scheduler.NewCore(12, false)
	c.SetArbiter(arb)
	now := 0.0
	a := submit(t, c, "a", 0, now, chain1D(4, 8))
	submit(t, c, "b", 0, now, chain1D(4, 8))
	now++
	if d := contact(t, c, a, 100, now); d.Action != scheduler.ActionExpand {
		t.Fatalf("unmeasured probe vetoed: %+v", d)
	}
}

// TestStarvationAging: a high-priority runner may expand over a young
// low-priority queued job, but once the waiter ages to parity the runner
// is drafted into the shrink plan instead.
func TestStarvationAging(t *testing.T) {
	arb := &BenefitRanked{}
	c := scheduler.NewCore(12, false)
	c.SetArbiter(arb)
	now := 0.0
	a := submit(t, c, "hi", 2, now, chain1D(2, 4, 6, 8))
	grow(t, c, a, 6, &now) // visits 2,4,6; 6 idle
	low := submit(t, c, "low", 0, now, chain1D(8, 10))
	if low.State != scheduler.Queued {
		t.Fatal("low should queue (needs 8, 6 idle)")
	}

	// Young queue (aged priority 0 < 2): the runner stays exempt and may
	// keep expanding.
	d := contact(t, c, a, 20, now+1)
	if d.Action != scheduler.ActionExpand {
		t.Fatalf("young queue should not block the high-priority runner: %+v", d)
	}
	// a now holds 8, 4 idle; deficit 4.

	// The waiter ages one level per DefaultAgingSeconds. One interval on
	// (aged 1 < 2) the runner is still exempt; two intervals on parity is
	// reached, the exemption is gone, and the runner is drafted to free
	// the deficit.
	d, err := c.Contact(a.ID, a.Topo, 14, 0, now+DefaultAgingSeconds+1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action == scheduler.ActionShrink {
		t.Fatalf("a waiter one aging interval old must not draft the runner: %+v", d)
	}
	d, err = c.Contact(a.ID, a.Topo, 14, 0, now+2*DefaultAgingSeconds+1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != scheduler.ActionShrink {
		t.Fatalf("aged queue must draft the runner into shrinking: %+v", d)
	}
	if free := a.Topo.Count(); d.Target.Count() != 4 && free-d.Target.Count() < 4 {
		t.Fatalf("shrink %+v does not cover the aged head's deficit", d)
	}
}

// TestPlanRebuiltWhenDonorVanishes: a demand assigned to a job that
// finishes must not strand the queue head — the next contact rebuilds the
// plan around the surviving donors.
func TestPlanRebuiltWhenDonorVanishes(t *testing.T) {
	arb := &BenefitRanked{}
	c := scheduler.NewCore(16, false)
	c.SetArbiter(arb)
	now := 0.0
	a := submit(t, c, "a", 0, now, chain1D(2, 4, 6))
	b := submit(t, c, "b", 0, now, chain1D(2, 4, 6))
	grow(t, c, a, 6, &now)
	grow(t, c, b, 6, &now)
	head := submit(t, c, "head", 0, now, chain1D(12)) // deficit 8: both donors drafted
	now++
	if d, err := c.Contact(a.ID, a.Topo, 10, 0, now); err != nil || d.Action != scheduler.ActionShrink {
		t.Fatalf("donor a: %v %+v", err, d)
	}
	// Donor a finishes instead of completing its shrink: its full allocation
	// returns to the pool (6 procs -> 10 free, deficit 2 remains).
	now++
	if _, err := c.Finish(a.ID, now); err != nil {
		t.Fatal(err)
	}
	if head.State != scheduler.Queued {
		t.Fatal("head cannot start yet")
	}
	// b must now be drafted for the remaining deficit despite the stale plan.
	now++
	d, err := c.Contact(b.ID, b.Topo, 10, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != scheduler.ActionShrink || d.Target.Count() != 4 {
		t.Fatalf("surviving donor got %+v, want shrink to 4", d)
	}
	now++
	started, err := c.ResizeComplete(b.ID, 0.1, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0].ID != head.ID {
		t.Fatalf("head still waiting after rebuilt plan: %v", started)
	}
}

// TestExemptRunnersNeverDrafted: a runner whose priority exempts it from
// the head's queue pressure must neither receive a shrink demand nor count
// toward plan coverage — otherwise its never-issued demand would stall the
// head behind phantom capacity.
func TestExemptRunnersNeverDrafted(t *testing.T) {
	arb := &BenefitRanked{}
	c := scheduler.NewCore(20, false)
	c.SetArbiter(arb)
	now := 0.0
	hi := submit(t, c, "hi", 5, now, chain1D(2, 4, 6))
	lo := submit(t, c, "lo", 0, now, chain1D(2, 4, 6))
	grow(t, c, hi, 6, &now)
	grow(t, c, lo, 6, &now)
	head := submit(t, c, "head", 0, now, chain1D(10)) // 8 idle: deficit 2
	// The exempt runner contacts first: it takes the expand path (held at
	// its largest configuration), never a coordinated-shrink stall.
	now++
	dhi, err := c.Contact(hi.ID, hi.Topo, 10, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if dhi.Action != scheduler.ActionNone || dhi.Text() != "already at largest configuration" {
		t.Fatalf("exempt runner got %+v, want the no-queue expand path", dhi)
	}
	// The draftable donor must be demanded even though the exempt runner
	// could also have covered the deficit.
	dlo, err := c.Contact(lo.ID, lo.Topo, 10, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if dlo.Action != scheduler.ActionShrink || dlo.Target.Count() != 4 {
		t.Fatalf("draftable donor got %+v, want shrink to 4", dlo)
	}
	now++
	started, err := c.ResizeComplete(lo.ID, 0.1, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0].ID != head.ID {
		t.Fatalf("head did not start: %v", started)
	}
}

// TestMidResizeRivalDoesNotVeto: a rival whose profile still carries its
// pre-resize configuration's times must not be scored against that stale
// baseline — the contacting job keeps its expansion.
func TestMidResizeRivalDoesNotVeto(t *testing.T) {
	predict := func(jobID int, tp grid.Topology) (float64, bool) {
		switch {
		case jobID == 0 && tp.Count() == 8:
			return 90, true // caller's modest, measured gain
		case jobID == 1 && tp.Count() == 12:
			return 10, true // huge gain against the rival's STALE 4-proc time
		}
		return 0, false
	}
	arb := &BenefitRanked{Predict: predict}
	c := scheduler.NewCore(16, false)
	c.SetArbiter(arb)
	now := 0.0
	a := submit(t, c, "a", 0, now, chain1D(4, 8))
	b := submit(t, c, "b", 0, now, chain1D(4, 8, 12))
	// b expands 4 -> 8 but records no iteration on 8: its current visit
	// still says 4 procs at 100 s.
	now++
	if d := contact(t, c, b, 100, now); d.Action != scheduler.ActionExpand {
		t.Fatalf("rival setup: %+v", d)
	}
	// 4 idle; both next steps need 4 — contention. The rival's inflated
	// stale-baseline gain must be ignored, so the caller expands.
	now++
	da := contact(t, c, a, 100, now)
	if da.Action != scheduler.ActionExpand || da.Target.Count() != 8 {
		t.Fatalf("caller got %+v, want expansion to 8 (rival is mid-resize)", da)
	}
}

// TestLowPriorityDonorsShrinkFirst: with mixed priorities, the coordinated
// plan drafts the lowest-priority donor.
func TestLowPriorityDonorsShrinkFirst(t *testing.T) {
	arb := &BenefitRanked{}
	c := scheduler.NewCore(20, false)
	c.SetArbiter(arb)
	now := 0.0
	hi := submit(t, c, "hi", 5, now, chain1D(2, 4, 6))
	lo := submit(t, c, "lo", 0, now, chain1D(2, 4, 6))
	grow(t, c, hi, 6, &now)
	grow(t, c, lo, 6, &now)
	// 8 idle; head needs 10 -> deficit 2; head priority above both runners
	// so neither is exempt.
	headSpec := scheduler.JobSpec{
		Name: "head", App: "lu", ProblemSize: 8000, Iterations: 1 << 30,
		Priority: 9, InitialTopo: grid.Topology{Rows: 1, Cols: 10},
		Chain: chain1D(10),
	}
	if _, _, err := c.Submit(headSpec, now); err != nil {
		t.Fatal(err)
	}
	now++
	dhi, err := c.Contact(hi.ID, hi.Topo, 10, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if dhi.Action != scheduler.ActionNone {
		t.Fatalf("high-priority donor drafted before the low one: %+v", dhi)
	}
	dlo, err := c.Contact(lo.ID, lo.Topo, 10, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if dlo.Action != scheduler.ActionShrink || dlo.Target.Count() != 4 {
		t.Fatalf("low-priority donor got %+v, want shrink to 4", dlo)
	}
}

// planProbe hands every contact to a BenefitRanked and, when armed, first
// counts what rebuilding the coordinated shrink plan over the live core's
// shrinkable jobs allocates.
type planProbe struct {
	inner  *BenefitRanked
	armed  bool
	allocs float64
	donors int
}

func (p *planProbe) Name() string { return "plan-probe" }

func (p *planProbe) Decide(snap scheduler.ClusterSnapshot) scheduler.Decision {
	if p.armed {
		p.armed = false
		p.allocs = testing.AllocsPerRun(20, func() { p.inner.buildPlan(snap.Cluster, 0, -1, 1<<20) })
		p.donors = len(p.inner.plan.demands)
	}
	return p.inner.Decide(snap)
}

// TestBuildPlanAllocatesNothing pins the plan's scratch: every donor's
// shrink points go into one reused arena, so once a plan has been built,
// building it again over the same donors allocates nothing.
func TestBuildPlanAllocatesNothing(t *testing.T) {
	probe := &planProbe{inner: &BenefitRanked{}}
	c := scheduler.NewCore(64, false)
	c.SetArbiter(probe)
	now := 0.0
	var jobs []*scheduler.Job
	for i := range 8 {
		j := submit(t, c, string(rune('a'+i)), 0, now, chain1D(2, 4, 6, 8))
		grow(t, c, j, 8, &now)
		jobs = append(jobs, j)
	}
	probe.armed = true
	contact(t, c, jobs[0], 10, now+1)
	if probe.donors != len(jobs) {
		t.Fatalf("plan drew on %d donors, want all %d", probe.donors, len(jobs))
	}
	if probe.allocs != 0 {
		t.Errorf("building a plan over %d donors allocates %.2f times", len(jobs), probe.allocs)
	}
}

// TestCodedReasonsAllocateNothing: a yield and a coordinated shrink carry
// their job id as an operand, so deciding either over a hand-built
// snapshot allocates nothing once the arbiter's scratch is warm.
func TestCodedReasonsAllocateNothing(t *testing.T) {
	measured := func(id int, topo grid.Topology, visits ...int) scheduler.ContactView {
		p := scheduler.NewProfile()
		for i, procs := range visits {
			p.RecordIteration(grid.Topology{Rows: 1, Cols: procs}, 100-float64(10*i))
		}
		return scheduler.ContactView{ID: id, Topo: topo, Chain: chain1D(2, 4, 6, 8), Profile: p, RemainingIters: 10}
	}
	predict := func(jobID int, tp grid.Topology) (float64, bool) {
		return 85 - 45*float64(jobID), tp.Count() == 6 // job 1 gains more
	}
	caller, rival := measured(0, chain1D(4)[0], 4), measured(1, chain1D(4)[0], 4)
	donor := measured(0, chain1D(6)[0], 2, 4, 6)
	for _, tc := range []struct {
		name string
		snap scheduler.ClusterSnapshot
		want string
	}{
		{"yield", scheduler.ClusterSnapshot{Now: 1, Total: 16, Idle: 2, Caller: caller,
			Cluster: scheduler.RunningViews{caller, rival}}, "yielding idle pool to job 1 (higher benefit per processor)"},
		{"coordinated-shrink", scheduler.ClusterSnapshot{Now: 1, Total: 16, Idle: 4, Caller: donor,
			Queued:  []scheduler.QueuedView{{ID: 9, Need: 12}},
			Cluster: scheduler.RunningViews{donor}}, "coordinated shrink to start queued job 9"},
	} {
		a := &BenefitRanked{Predict: predict}
		a.Decide(tc.snap)
		var d scheduler.Decision
		if allocs := testing.AllocsPerRun(100, func() { d = a.Decide(tc.snap) }); allocs != 0 {
			t.Errorf("%s: %.2f allocations, want 0", tc.name, allocs)
		}
		if d.Text() != tc.want {
			t.Errorf("%s: decided %+v, reading %q, want %q", tc.name, d, d.Text(), tc.want)
		}
	}
}
