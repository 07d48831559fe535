package arbiter

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// sweepVeto is the expansion veto as it was written over EachRunning: every
// running job, the contention test first, then the price, equal gains going
// to the lowest id whatever order the walk yields in. It is the reference
// the index walk is held to.
func sweepVeto(a *BenefitRanked, snap scheduler.ClusterSnapshot, target grid.Topology) (int, bool) {
	caller := &snap.Caller
	step, ok := scheduler.NextInChain(caller.Chain, caller.Topo)
	if !ok {
		return 0, false
	}
	mine, known := a.expandGain(caller, step)
	if !known {
		return 0, false
	}
	deltaMine := target.Count() - caller.Topo.Count()
	best, bestGain := -1, mine
	snap.Cluster.EachRunning(func(r *scheduler.ContactView) bool {
		if r.ID == caller.ID || r.Priority < caller.Priority {
			return true
		}
		next, ok := scheduler.NextInChain(r.Chain, r.Topo)
		if !ok {
			return true
		}
		deltaR := next.Count() - r.Topo.Count()
		if deltaR > snap.Idle || snap.Idle >= deltaMine+deltaR {
			return true
		}
		if gain, known := a.expandGain(r, next); known && (gain > bestGain || gain == bestGain && best >= 0 && r.ID < best) {
			best, bestGain = r.ID, gain
		}
		return true
	})
	if best >= 0 {
		return best, true
	}
	return 0, false
}

// contending counts the running jobs whose next step passes the sweep's
// contention test — fits the idle pool, which cannot also serve the
// caller's step — whatever their id or priority: what the veto walk may be
// yielded.
func contending(snap scheduler.ClusterSnapshot, target grid.Topology) int {
	deltaMine := target.Count() - snap.Caller.Topo.Count()
	n := 0
	snap.Cluster.EachRunning(func(r *scheduler.ContactView) bool {
		if next, ok := scheduler.NextInChain(r.Chain, r.Topo); ok {
			if d := next.Count() - r.Topo.Count(); d <= snap.Idle && snap.Idle < deltaMine+d {
				n++
			}
		}
		return true
	})
	return n
}

// countingView counts the full sweeps and the expandable yields an arbiter
// asks of the cluster.
type countingView struct {
	scheduler.ClusterView
	sweeps, yields int
}

func (c *countingView) EachRunning(yield func(*scheduler.ContactView) bool) {
	c.sweeps++
	c.ClusterView.EachRunning(yield)
}

func (c *countingView) EachExpandable(lo, hi int, yield func(*scheduler.ContactView) bool) {
	c.ClusterView.EachExpandable(lo, hi, func(v *scheduler.ContactView) bool {
		c.yields++
		return yield(v)
	})
}

// quantized predicts iteration times from a small set, so equal gains per
// processor across different step sizes are common: with a 100 s current
// time, 60 s on a 4-processor step, 80 s on a 2-processor step and 90 s on
// a 1-processor step all gain 10 s per processor per iteration.
func quantized(jobID int, t grid.Topology) (float64, bool) {
	switch (jobID*7 + t.Count()) % 5 {
	case 0:
		return 0, false
	case 1:
		return 60, true
	case 2:
		return 80, true
	case 3:
		return 90, true
	}
	return 95, true
}

// checkVeto compares the veto with the reference sweep at one snapshot and
// one target, counting what the walk asked of the cluster.
func checkVeto(t *testing.T, a *BenefitRanked, snap scheduler.ClusterSnapshot, target grid.Topology, where string) {
	t.Helper()
	wantID, want := sweepVeto(a, snap, target)
	cv := &countingView{ClusterView: snap.Cluster}
	counted := snap
	counted.Cluster = cv
	gotID, got := a.betterCandidate(&counted, target)
	if gotID != wantID || got != want {
		t.Fatalf("%s: veto names (%d, %v), the sweep names (%d, %v)", where, gotID, got, wantID, want)
	}
	if cv.sweeps != 0 {
		t.Fatalf("%s: the veto swept the running set %d times", where, cv.sweeps)
	}
	step, hasStep := scheduler.NextInChain(snap.Caller.Chain, snap.Caller.Topo)
	wantYields := 0
	if _, known := a.expandGain(&snap.Caller, step); hasStep && known {
		wantYields = contending(snap, target)
	}
	if cv.yields != wantYields {
		t.Fatalf("%s: the veto was yielded %d jobs, %d contend", where, cv.yields, wantYields)
	}
}

// randomView builds a running job on a random 1-D chain, measured on its
// current configuration — or, now and then, still carrying the previous
// one's time (mid-resize) or nothing at all.
func randomView(rng *rand.Rand, id int) scheduler.ContactView {
	counts := []int{1 + rng.Intn(2)}
	for len(counts) < 2+rng.Intn(4) {
		counts = append(counts, counts[len(counts)-1]+[]int{1, 2, 3, 4}[rng.Intn(4)])
	}
	chain := chain1D(counts...)
	topo := chain[rng.Intn(len(chain))]
	p := scheduler.NewProfile()
	switch rng.Intn(6) {
	case 0:
	case 1:
		p.RecordIteration(chain[0], 100)
	default:
		p.RecordIteration(topo, 100)
	}
	return scheduler.ContactView{
		ID: id, Priority: rng.Intn(3), Topo: topo, Chain: chain,
		Profile: p, RemainingIters: 10,
	}
}

// vetoProbe sits between a core and a BenefitRanked: at every contact it
// holds the veto to the reference sweep on the expansion the published
// policy would ask for, then lets the wrapped arbiter decide through a
// counting view that must never be swept.
type vetoProbe struct {
	t       *testing.T
	inner   *BenefitRanked
	checked int
}

func (p *vetoProbe) Name() string { return "veto-probe" }

func (p *vetoProbe) Decide(snap scheduler.ClusterSnapshot) scheduler.Decision {
	if next, ok := scheduler.NextInChain(snap.Caller.Chain, snap.Caller.Topo); ok {
		checkVeto(p.t, p.inner, snap, next, "live core")
		p.checked++
	}
	cv := &countingView{ClusterView: snap.Cluster}
	snap.Cluster = cv
	d := p.inner.Decide(snap)
	if cv.sweeps != 0 {
		p.t.Fatalf("contact of job %d swept the running set %d times", snap.Caller.ID, cv.sweeps)
	}
	return d
}

// TestVetoMatchesSweep holds the index walk to the sweep it replaced: the
// same rival named (or none) over random hand-built running sets, over the
// live index of a core driven through random contacts, resizes and
// completions — gains quantized so equal-gain ties across step sizes are
// common — and on a constructed tie across two step sizes. The walk never
// sweeps the running set and is yielded exactly the contending jobs.
func TestVetoMatchesSweep(t *testing.T) {
	t.Run("hand-built", vetoOverHandBuiltSets)
	t.Run("live-core", vetoOverLiveCores)
	t.Run("tie-across-buckets", vetoTieAcrossBuckets)
}

func vetoOverHandBuiltSets(t *testing.T) {
	a := &BenefitRanked{Predict: quantized}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		views := make(scheduler.RunningViews, 2+rng.Intn(40))
		for i := range views {
			views[i] = randomView(rng, i)
		}
		caller := views[rng.Intn(len(views))]
		next, ok := scheduler.NextInChain(caller.Chain, caller.Topo)
		if !ok {
			continue
		}
		snap := scheduler.ClusterSnapshot{
			Now: 1, Total: 256, Idle: 1 + rng.Intn(12), Caller: caller, Cluster: views,
		}
		checkVeto(t, a, snap, next, "hand-built set")
	}
}

func vetoOverLiveCores(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		probe := &vetoProbe{t: t, inner: &BenefitRanked{Predict: quantized}}
		c := scheduler.NewCore(48, true)
		c.SetArbiter(probe)
		now := 0.0
		for op := 0; op < 300; op++ {
			now++
			var running []*scheduler.Job
			for _, j := range c.Jobs() {
				if j.State == scheduler.Running {
					running = append(running, j)
				}
			}
			var err error
			switch k := rng.Intn(10); {
			case k < 3 || len(running) == 0:
				v := randomView(rng, 0)
				_, _, err = c.Submit(scheduler.JobSpec{
					Name: "j", App: "lu", ProblemSize: 8000, Iterations: 40,
					Priority: v.Priority, InitialTopo: v.Chain[0], Chain: v.Chain,
				}, now)
			case k < 8:
				j := running[rng.Intn(len(running))]
				var d scheduler.Decision
				d, err = c.Contact(j.ID, j.Topo, []float64{60, 80, 90, 100}[rng.Intn(4)], 0, now)
				if err == nil && d.Action != scheduler.ActionNone && rng.Intn(2) == 0 {
					_, err = c.ResizeComplete(j.ID, 0.1, now)
				}
			default:
				_, err = c.Finish(running[rng.Intn(len(running))].ID, now)
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		if probe.checked == 0 {
			t.Fatalf("seed %d: no contact reached the veto", seed)
		}
	}
}

// vetoTieAcrossBuckets: two rivals contend with equal gains from different
// step sizes, the lower id on the larger step. The index yields the smaller
// step first, so only the explicit id tie-break names the rival the
// id-ordered sweep named.
func vetoTieAcrossBuckets(t *testing.T) {
	predict := func(jobID int, tp grid.Topology) (float64, bool) {
		switch jobID {
		case 0:
			return 95, true // caller, 2-proc step: 2.5 s per processor
		case 1:
			return 60, true // 4-proc step: 10 s per processor
		case 2:
			return 70, true // 3-proc step: 10 s per processor
		}
		return 0, false
	}
	inner := &BenefitRanked{Predict: predict}
	probe := &vetoProbe{t: t, inner: inner}
	c := scheduler.NewCore(10, false)
	c.SetArbiter(probe)
	caller := submit(t, c, "caller", 0, 0, chain1D(2, 4))
	lowID := submit(t, c, "low-id", 0, 0, chain1D(2, 6))
	highID := submit(t, c, "high-id", 0, 0, chain1D(2, 5))
	filler := submit(t, c, "filler", 0, 0, chain1D(4))
	for _, j := range []*scheduler.Job{caller, lowID, highID} {
		if d := contact(t, c, j, 100, 1); d.Action != scheduler.ActionNone {
			t.Fatalf("full pool should hold job %d: %+v", j.ID, d)
		}
	}
	if _, err := c.Finish(filler.ID, 2); err != nil {
		t.Fatal(err)
	}
	// 4 idle: the caller's 2-proc step contends with both rivals' steps (3
	// and 4 processors), whose gains are equal and higher than the caller's.
	d := contact(t, c, caller, 100, 3)
	if d.Action != scheduler.ActionNone || !strings.Contains(d.Text(), "yielding idle pool to job 1") {
		t.Fatalf("caller got %+v, want a yield to job 1 (equal gain, lower id)", d)
	}
	if probe.checked == 0 {
		t.Fatal("the probe never compared the veto")
	}
}
