package rebalance_test

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
	"repro/internal/scheduler/rebalance"
)

// rebalanceStanding builds the planning-tick fixture: a 2048-processor
// cluster under the global rebalancer running 200 jobs that have each probed
// one to three rungs up a four-rung chain (two to four visits, a recorded
// redistribution cost per move), with idle processors left for the plan to
// hand out. Nothing contacts the scheduler between ticks, so every tick
// plans the same snapshot.
func rebalanceStanding(tb testing.TB) (*scheduler.Core, *rebalance.Rebalancer) {
	core := scheduler.NewCore(2048, true)
	core.DisableTrace()
	reb := rebalance.New(nil)
	core.SetArbiter(reb)
	chain := []grid.Topology{{Rows: 1, Cols: 2}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 4}, {Rows: 4, Cols: 4}}
	for i := 0; i < 200; i++ {
		job, _, err := core.Submit(scheduler.JobSpec{
			Name: "lu", App: "lu", ProblemSize: 12000, Iterations: 1 << 30,
			InitialTopo: chain[0], Chain: chain,
		}, 0)
		if err != nil {
			tb.Fatal(err)
		}
		for probes, iter := 1+i%3, 64.0; probes > 0; probes-- {
			d, err := core.Contact(job.ID, job.Topo, iter, 0, 1)
			if err != nil || d.Action != scheduler.ActionExpand {
				tb.Fatalf("fixture: job %d did not probe up: %+v, %v", job.ID, d, err)
			}
			if _, err := core.ResizeComplete(job.ID, 0.1, 1); err != nil {
				tb.Fatal(err)
			}
			iter *= 0.6
			if probes == 1 {
				// One iteration on the final configuration, reported through
				// the profile alone so the job stays where the probes put it.
				job.Profile.RecordIteration(job.Topo, iter)
			}
		}
	}
	return core, reb
}

// ticker returns a planning tick on the fixture, a virtual minute apart.
func ticker(tb testing.TB, core *scheduler.Core) func() {
	now := 2.0
	return func() {
		now += 60
		if err := core.Rebalance(now); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRebalanceTickAllocs holds a steady-state planning tick to at most two
// allocations (it makes none today), whatever the size of the running set:
// views, bids, curve fits and redistribution-cost lookups all run on the
// Rebalancer's reused storage or on the stack, and the sweep's callback is
// bound once.
func TestRebalanceTickAllocs(t *testing.T) {
	core, reb := rebalanceStanding(t)
	tick := ticker(t, core)
	tick() // warm-up: the views grow to the running set once
	if len(reb.Directives()) == 0 {
		t.Fatal("fixture: the standing tick plans nothing")
	}
	if allocs := testing.AllocsPerRun(20, tick); allocs > 2 {
		t.Fatalf("steady-state planning tick: %.0f allocations, want at most 2", allocs)
	}
}

// TestUnchangedTickPricesNothing pins what a tick costs: a view is rebuilt
// only for a job that changed since the last tick, and a bid is priced only
// once per planned position, so a tick over an unchanged cluster builds and
// prices nothing however many rounds its water-filling takes.
func TestUnchangedTickPricesNothing(t *testing.T) {
	core, reb := rebalanceStanding(t)
	tick := ticker(t, core)
	tick()
	views, bids := reb.Costs()
	if views != 200 || bids == 0 {
		t.Fatalf("first tick built %d views and priced %d bids, want 200 and some", views, bids)
	}
	planned := reb.Directives()
	if len(planned) == 0 {
		t.Fatal("fixture: the standing tick plans nothing")
	}

	tick()
	if v, b := reb.Costs(); v != views || b != bids {
		t.Fatalf("unchanged tick built %d views and priced %d bids, want none", v-views, b-bids)
	}

	// One job reports an iteration: its view alone is rebuilt.
	job, _ := core.Job(planned[0].JobID)
	if _, err := core.Contact(job.ID, job.Topo, 10, 0, 200); err != nil {
		t.Fatal(err)
	}
	views, _ = reb.Costs()
	tick()
	if v, _ := reb.Costs(); v-views != 1 {
		t.Fatalf("tick after one contact built %d views, want 1", v-views)
	}
}

// BenchmarkRebalanceTick times one planning tick (ns/op) over the 200-job
// standing fixture: steady re-plans an unchanged cluster, one-changed has
// one job at the top of its chain contact the core between ticks, so its
// view is rebuilt. views/op and bids/op count the work done per tick,
// walked/op the running jobs a tick walks (0: it read the change feed).
func BenchmarkRebalanceTick(b *testing.B) {
	for _, changed := range []bool{false, true} {
		name := "steady"
		if changed {
			name = "one-changed"
		}
		b.Run(name, func(b *testing.B) {
			core, reb := rebalanceStanding(b)
			var topped []*scheduler.Job // nothing to expand to: a contact changes no plan
			for _, j := range core.Jobs() {
				if _, ok := scheduler.NextInChain(j.Spec.Chain, j.Topo); !ok {
					topped = append(topped, j)
				}
			}
			tick := ticker(b, core)
			tick()
			views, bids := reb.Costs()
			walked := reb.Walked()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if changed {
					// A repeat of the job's last time, through the core.
					j := topped[i%len(topped)]
					d, err := core.Contact(j.ID, j.Topo, j.Profile.Current().Last(), 0, 2)
					if err != nil || d.Action != scheduler.ActionNone {
						b.Fatalf("job %d at the top of its chain was resized: %+v, %v", j.ID, d, err)
					}
				}
				tick()
			}
			v, p := reb.Costs()
			b.ReportMetric(float64(v-views)/float64(b.N), "views/op")
			b.ReportMetric(float64(p-bids)/float64(b.N), "bids/op")
			b.ReportMetric(float64(reb.Walked()-walked)/float64(b.N), "walked/op")
		})
	}
}
