package scheduler

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// policyArbiter decides through a snapshot: it narrows it to the published
// policy's input, the snapshot path held to the no-arbiter one.
type policyArbiter struct{}

func (policyArbiter) Name() string                         { return "paper" }
func (policyArbiter) Decide(snap ClusterSnapshot) Decision { return Decide(snap.RemapInput()) }

// referenceDecision is the pre-arbiter Contact decision path: record the
// iteration on the profile, count completed iterations, build the
// RemapInput from the core's idle pool and the need of the queue window's
// first job, and run the published policy. Both decision paths must
// reproduce it bit for bit.
func referenceDecision(c *Core, j *Job, iterTime float64) Decision {
	prof := cloneProfile(j.Profile)
	prof.RecordIteration(j.Topo, iterTime)
	done := 0
	for _, v := range prof.Visits {
		done += len(v.IterTimes)
	}
	headNeed := 0
	if w := c.queue.window(nil, 1); len(w) > 0 {
		headNeed = w[0].Spec.InitialTopo.Count()
	}
	return Decide(RemapInput{
		Current:        j.Topo,
		Chain:          j.Spec.Chain,
		Profile:        prof,
		IdleProcs:      c.free,
		HeadNeed:       headNeed,
		RemainingIters: j.Spec.Iterations - done,
	})
}

// TestPolicyArbiterMatchesPublishedDecide drives the Core with random
// operation traces and checks every Contact against the published
// single-job decision computed independently from the same pre-contact
// state. Every seed runs twice: deciding on the no-arbiter path, then
// through a snapshot and policyArbiter, so both are pinned to it
// bit-identically.
func TestPolicyArbiterMatchesPublishedDecide(t *testing.T) {
	for run := int64(0); run < 40; run++ {
		seed := run / 2
		rng := rand.New(rand.NewSource(seed))
		total := 8 + rng.Intn(56)
		c := NewCore(total, rng.Intn(2) == 0)
		if run%2 == 1 {
			c.SetArbiter(policyArbiter{})
		}
		now := 0.0
		var running []*Job
		for op := 0; op < 300; op++ {
			now += rng.Float64() * 10
			switch rng.Intn(4) {
			case 0:
				n := []int{8000, 12000, 14000, 21000}[rng.Intn(4)]
				start, ok := grid.SmallestConfig(n, 2+rng.Intn(4), total)
				if !ok {
					continue
				}
				sp := JobSpec{
					Name: "j", App: "lu", ProblemSize: n,
					Iterations:  1 << 30,
					Priority:    rng.Intn(3),
					InitialTopo: start,
					Chain:       grid.GrowthChain(start, n, total),
				}
				if _, _, err := c.Submit(sp, now); err != nil {
					t.Fatal(err)
				}
			case 1, 2:
				if len(running) == 0 {
					continue
				}
				j := running[rng.Intn(len(running))]
				if j.State != Running {
					continue
				}
				iter := 10 + rng.Float64()*100
				want := referenceDecision(c, j, iter)
				got, err := c.Contact(j.ID, j.Topo, iter, 0, now)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d op %d: decision %+v, published policy says %+v", seed, op, got, want)
				}
				if got.Action != ActionNone {
					if _, err := c.ResizeComplete(j.ID, rng.Float64()*5, now); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				if len(running) == 0 {
					continue
				}
				j := running[rng.Intn(len(running))]
				if j.State != Running {
					continue
				}
				if _, err := c.Finish(j.ID, now); err != nil {
					t.Fatal(err)
				}
			}
			running = running[:0]
			for _, j := range c.Jobs() {
				if j.State == Running {
					running = append(running, j)
				}
			}
		}
	}
}

// TestSnapshotViews covers the cluster snapshot the cores hand to
// arbiters: the caller view, the priority/age-annotated queued window, and
// the deterministic running-job iteration.
func TestSnapshotViews(t *testing.T) {
	c := NewCore(16, false)
	a, _, err := c.Submit(spec("a", topo(2, 4), 12000), 1) // 8 procs
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := c.Submit(spec("b", topo(2, 3), 8000), 2) // 6 procs
	qspec := spec("q", topo(2, 4), 14000)               // needs 8: queues
	qspec.Priority = 4
	q, _, _ := c.Submit(qspec, 5)
	if a.State != Running || b.State != Running || q.State != Queued {
		t.Fatalf("states %v/%v/%v", a.State, b.State, q.State)
	}
	if _, err := c.Contact(a.ID, a.Topo, 50, 0, 9); err != nil {
		t.Fatal(err)
	}

	var snap ClusterSnapshot
	c.snapshot(&snap, a, 9)
	if snap.Total != 16 || snap.Idle != 2 {
		t.Fatalf("total/idle %d/%d", snap.Total, snap.Idle)
	}
	if snap.Caller.ID != a.ID || snap.Caller.Topo != a.Topo || snap.Caller.Priority != 0 {
		t.Fatalf("caller view %+v", snap.Caller)
	}
	if snap.Caller.Profile != a.Profile {
		t.Fatal("caller profile must alias the job's live profile")
	}
	if len(snap.Queued) != 1 {
		t.Fatalf("queued window %v", snap.Queued)
	}
	qv := snap.Queued[0]
	if qv.ID != q.ID || qv.Priority != 4 || qv.Need != 8 || qv.Submit != 5 || snap.Now-qv.Submit != 4 {
		t.Fatalf("queued view %+v", qv)
	}
	if got := snap.RemapInput().HeadNeed; got != 8 {
		t.Fatalf("HeadNeed %d, want 8", got)
	}

	var ids []int
	snap.Cluster.EachRunning(func(v *ContactView) bool {
		ids = append(ids, v.ID)
		return true
	})
	if len(ids) != 2 || ids[0] != a.ID || ids[1] != b.ID {
		t.Fatalf("running iteration order %v, want [%d %d]", ids, a.ID, b.ID)
	}

	// Early termination.
	n := 0
	snap.Cluster.EachRunning(func(*ContactView) bool { n++; return false })
	if n != 1 {
		t.Fatalf("EachRunning ignored yield=false (%d yields)", n)
	}
}

// growTo walks a running job up its chain by feeding improving iteration
// times, leaving shrink points at every visited configuration.
func growTo(t *testing.T, c *Core, j *Job, procs int) {
	t.Helper()
	iter, now := 100.0, 1.0
	for j.Topo.Count() < procs {
		d, err := c.Contact(j.ID, j.Topo, iter, 0, now)
		if err != nil {
			t.Fatal(err)
		}
		if d.Action != ActionExpand {
			t.Fatalf("expected expansion at %v (%d procs), got %+v", j.Topo, j.Topo.Count(), d)
		}
		if _, err := c.ResizeComplete(j.ID, 1, now); err != nil {
			t.Fatal(err)
		}
		iter *= 0.7
		now++
	}
}

// TestTruncatedWindowNeverOverShrinks is the QueuedNeedsWindow contract
// regression: with far more queued jobs than the window shows, the policy
// must still size its shrink to the head job's need alone — the largest
// (least harmful) shrink point that covers it — never deeper on account of
// the truncated tail.
func TestTruncatedWindowNeverOverShrinks(t *testing.T) {
	c := NewCore(36, false)
	j, _, err := c.Submit(spec("big", topo(1, 2), 21000), 0)
	if err != nil {
		t.Fatal(err)
	}
	growTo(t, c, j, 36) // walk the whole chain: shrink points at every visit
	cur := j.Topo.Count()
	free := c.Free()
	const headNeed = 4
	if free >= headNeed {
		t.Fatalf("setup: %d idle, waiters would start immediately", free)
	}

	// Flood the queue well past the window: every waiter needs 4 procs.
	for i := 0; i < 3*QueuedNeedsWindow; i++ {
		if _, _, err := c.Submit(spec("w", topo(2, 2), 8000), 10); err != nil {
			t.Fatal(err)
		}
	}
	if c.QueueLen() != 3*QueuedNeedsWindow {
		t.Fatalf("queue %d", c.QueueLen())
	}
	if w := c.queuedWindow(); len(w) != QueuedNeedsWindow {
		t.Fatalf("window %d entries, want %d", len(w), QueuedNeedsWindow)
	}

	// The largest shrink point covering the head alone is the right target;
	// anything deeper would be over-shrinking for jobs the policy cannot
	// even see past the window.
	pts := j.Profile.AppendShrinkPoints(nil, j.Topo)
	if len(pts) < 2 {
		t.Fatalf("setup: only %d shrink points", len(pts))
	}
	want := pts[len(pts)-1]
	for _, p := range pts { // descending count: least freed first
		if free+cur-p.Count() >= headNeed {
			want = p
			break
		}
	}
	if cur-want.Count()+free >= 2*headNeed {
		t.Fatalf("setup: least covering point %v already frees %d (two waiters); pick sizes so the test discriminates",
			want, cur-want.Count()+free)
	}

	d, err := c.Contact(j.ID, j.Topo, 10, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionShrink {
		t.Fatalf("expected shrink under queue pressure, got %+v", d)
	}
	if d.Target != want {
		t.Fatalf("shrink target %v frees %d; want the least harmful covering point %v (frees %d)",
			d.Target, cur-d.Target.Count(), want, cur-want.Count())
	}
}
