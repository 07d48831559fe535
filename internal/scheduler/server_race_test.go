package scheduler

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
)

// TestServerContactRacesWatchAndCompletion hammers the Server from many
// directions at once — per-job Contact/ResizeComplete loops, JobEnd
// completions, Status polls, and Watch subscriptions churning open and
// closed — to prove the arbitration layer's multi-job snapshot reads stay
// race-free under the server lock (run with -race in CI). The arbiter
// installed here deliberately walks every running job on every contact, so
// the cluster-wide read path is exercised, not just the single-job
// default.
func TestServerContactRacesWatchAndCompletion(t *testing.T) {
	const jobs = 12
	core := NewCore(4*jobs, true)
	core.SetArbiter(snoopArbiter{})
	srv := NewServerCore(core, nil)
	ctx := context.Background()

	ids := make([]int, jobs)
	for i := range ids {
		start := grid.Topology{Rows: 1, Cols: 2}
		id, err := srv.Submit(ctx, JobSpec{
			Name: "hammer", App: "lu", ProblemSize: 8000,
			Iterations:  1 << 30,
			Priority:    i % 3,
			InitialTopo: start,
			Chain:       grid.GrowthChain(start, 8000, 8),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	var wg sync.WaitGroup
	stopWatch := make(chan struct{})

	// Watcher churn: subscribe, drain, cancel, repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			sub, err := srv.Watch(ctx, AllJobs)
			if err != nil {
				t.Error(err)
				return
			}
			deadline := time.After(2 * time.Millisecond)
		drain:
			for {
				select {
				case _, ok := <-sub.C:
					if !ok {
						break drain
					}
				case <-deadline:
					break drain
				}
			}
			sub.Cancel()
			for range sub.C { // drain to close
			}
		}
	}()

	// Status poller.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			if _, err := srv.Status(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// One driver per job: contact through a few hundred resize points, then
	// complete. Decisions mutate topology, so each driver tracks its own.
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			topo := grid.Topology{Rows: 1, Cols: 2}
			iter := 100.0
			for n := 0; n < 300; n++ {
				d, err := srv.Contact(ctx, id, topo, iter, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if d.Action != ActionNone {
					topo = d.Target
					if err := srv.ResizeComplete(ctx, id, 0.01); err != nil {
						t.Error(err)
						return
					}
				}
				iter *= 0.95
			}
			if err := srv.JobEnd(ctx, id); err != nil {
				t.Error(err)
				return
			}
		}(id)
	}

	done := make(chan struct{})
	go func() {
		wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		if err := srv.WaitAll(wctx); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	<-done
	close(stopWatch)
	wg.Wait()

	st, err := srv.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Busy != 0 || st.QueueLen != 0 {
		t.Fatalf("after completion: busy %d queue %d", st.Busy, st.QueueLen)
	}
	for _, j := range st.Jobs {
		if j.State != "done" {
			t.Fatalf("job %d ended %s", j.ID, j.State)
		}
	}
}

// snoopArbiter reads cluster-wide state on every contact (the racy access
// pattern the hammer test protects) and then defers to the published
// policy.
type snoopArbiter struct{}

func (snoopArbiter) Name() string { return "snoop" }

func (snoopArbiter) Decide(snap ClusterSnapshot) Decision {
	procs := 0
	snap.Cluster.EachRunning(func(v *ContactView) bool {
		procs += v.Topo.Count()
		_ = v.Profile.Current()
		return true
	})
	if procs > snap.Total {
		return Decision{Action: ActionNone, Reason: "accounting violation"}
	}
	return policyArbiter{}.Decide(snap)
}
