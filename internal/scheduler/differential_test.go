package scheduler

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// TestCoreMatchesLinearReference drives the event-indexed Core and the
// pre-refactor LinearCore with identical random operation sequences and
// requires identical externally visible behavior: the same jobs start in
// the same order, the same decisions come back from every contact, and the
// allocation traces match event for event. This pins the refactor to the
// reference semantics.
func TestCoreMatchesLinearReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		total := 8 + rng.Intn(56)
		backfill := rng.Intn(2) == 0
		cores := []Interface{
			NewCore(total, backfill),
			NewLinearCore(total, backfill),
		}
		now := 0.0

		runningIDs := func(c Interface) []int {
			var ids []int
			for _, j := range c.Jobs() {
				if j.State == Running {
					ids = append(ids, j.ID)
				}
			}
			return ids
		}

		for op := 0; op < 400; op++ {
			now += rng.Float64() * 10
			running := runningIDs(cores[0])
			kind := rng.Intn(4)
			pick := -1
			if len(running) > 0 {
				pick = running[rng.Intn(len(running))]
			}
			var sp JobSpec
			if kind == 0 {
				n := []int{8000, 12000, 14000, 21000}[rng.Intn(4)]
				start, ok := grid.SmallestConfig(n, 2+rng.Intn(4), total)
				if !ok {
					continue
				}
				sp = JobSpec{
					Name: "j", App: "lu", ProblemSize: n,
					Iterations:  1 << 30,
					Priority:    rng.Intn(3),
					InitialTopo: start,
					Chain:       grid.GrowthChain(start, n, total),
				}
			}
			iter := 10 + rng.Float64()*100
			red := rng.Float64() * 5

			type outcome struct {
				started []int
				d       Decision
				err     error
			}
			var results [2]outcome
			for i, c := range cores {
				var o outcome
				switch kind {
				case 0:
					_, started, err := c.Submit(sp, now)
					o.err = err
					for _, j := range started {
						o.started = append(o.started, j.ID)
					}
				case 1:
					if pick < 0 {
						continue
					}
					j, _ := c.Job(pick)
					o.d, o.err = c.Contact(pick, j.Topo, iter, 0, now)
				case 2:
					if pick < 0 {
						continue
					}
					started, err := c.ResizeComplete(pick, red, now)
					o.err = err
					for _, j := range started {
						o.started = append(o.started, j.ID)
					}
				case 3:
					if pick < 0 {
						continue
					}
					started, err := c.Finish(pick, now)
					o.err = err
					for _, j := range started {
						o.started = append(o.started, j.ID)
					}
				}
				results[i] = o
			}
			a, b := results[0], results[1]
			if (a.err == nil) != (b.err == nil) {
				t.Fatalf("seed %d op %d: error mismatch: %v vs %v", seed, op, a.err, b.err)
			}
			if a.d != b.d {
				t.Fatalf("seed %d op %d: decision mismatch: %+v vs %+v", seed, op, a.d, b.d)
			}
			if len(a.started) != len(b.started) {
				t.Fatalf("seed %d op %d: started %v vs %v", seed, op, a.started, b.started)
			}
			for i := range a.started {
				if a.started[i] != b.started[i] {
					t.Fatalf("seed %d op %d: started order %v vs %v", seed, op, a.started, b.started)
				}
			}
			if cores[0].Free() != cores[1].Free() || cores[0].QueueLen() != cores[1].QueueLen() {
				t.Fatalf("seed %d op %d: free %d/%d queue %d/%d", seed, op,
					cores[0].Free(), cores[1].Free(), cores[0].QueueLen(), cores[1].QueueLen())
			}
		}

		ae, be := cores[0].AllocEvents(), cores[1].AllocEvents()
		if len(ae) != len(be) {
			t.Fatalf("seed %d: event counts %d vs %d", seed, len(ae), len(be))
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("seed %d: event %d: %+v vs %+v", seed, i, ae[i], be[i])
			}
		}
		if s := cores[0].BusySeconds(now) - cores[1].BusySeconds(now); s > 1e-9 || s < -1e-9 {
			t.Fatalf("seed %d: busy-seconds diverge by %v", seed, s)
		}
	}
}

// TestQueueBackfillPicksBestRankedFit covers the indexed queue's bucket
// search directly: with the head blocked, backfill must start the
// best-ranked job that fits, honoring priority before submission order.
func TestQueueBackfillPicksBestRankedFit(t *testing.T) {
	c := NewCore(10, true)
	c.Submit(spec("hog", topo(2, 4), 8000), 0)               // 8 busy, 2 free
	c.Submit(spec("head", topo(2, 3), 12000), 1)             // needs 6: queues
	filler, _, _ := c.Submit(spec("f", topo(1, 2), 8000), 2) // backfills: 0 free
	if filler.State != Running {
		t.Fatal("filler should backfill immediately")
	}
	low, _, _ := c.Submit(spec("low", topo(1, 2), 8000), 3) // queues
	hiPrio := spec("hi", topo(1, 2), 8000)
	hiPrio.Priority = 5
	hi, _, _ := c.Submit(hiPrio, 4) // queues behind low by time, ahead by priority
	if low.State != Queued || hi.State != Queued {
		t.Fatalf("states %v/%v, want both queued", low.State, hi.State)
	}
	started, err := c.Finish(filler.ID, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0] != hi {
		t.Fatalf("backfill started %v, want the high-priority fit first", started)
	}
	if hi.State != Running || low.State != Queued {
		t.Fatalf("states hi=%v low=%v", hi.State, low.State)
	}
}

// TestCoreCrossShardExpansionViaContact: a job walked upward through
// Contact must keep being granted expansions past a quarter of the cluster
// (the span one shard of the retired sharded pool held), and every grant
// must come out of the one idle counter: free + held == Total after each
// step, and no expansion may be granted beyond what is idle.
func TestCoreCrossShardExpansionViaContact(t *testing.T) {
	c := NewCore(16, false)
	a, _, err := c.Submit(spec("a", topo(1, 2), 12000), 0)
	if err != nil {
		t.Fatal(err)
	}
	iter := 130.0
	for i := 0; i < 8; i++ {
		before := c.Free()
		d, err := c.Contact(a.ID, a.Topo, iter, 0, float64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if d.Action != ActionExpand {
			break
		}
		if grown := before - c.Free(); grown <= 0 || grown > before {
			t.Fatalf("expansion to %v took %d of %d idle", d.Target, grown, before)
		}
		if _, err := c.ResizeComplete(a.ID, 1, float64(i+1)); err != nil {
			t.Fatal(err)
		}
		if c.Free() < 0 || c.Free()+a.Topo.Count() != c.Total {
			t.Fatalf("accounting: free %d + held %d != %d", c.Free(), a.Topo.Count(), c.Total)
		}
		iter *= 0.8 // keep improving so the policy keeps probing
	}
	if a.Topo.Count() <= c.Total/4 {
		t.Fatalf("job never outgrew a quarter of the cluster: %v", a.Topo)
	}
	if _, err := c.Finish(a.ID, 20); err != nil {
		t.Fatal(err)
	}
	if c.Free() != c.Total {
		t.Fatalf("free %d of %d after finish", c.Free(), c.Total)
	}
}
