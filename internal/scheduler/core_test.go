package scheduler

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/grid"
)

// WaitAll blocks until every submitted job has finished or the context is
// done.
func (s *Server) WaitAll(ctx context.Context) error {
	s.mu.Lock()
	chans := make([]chan struct{}, 0, len(s.done))
	for _, ch := range s.done {
		chans = append(chans, ch)
	}
	s.mu.Unlock()
	for _, ch := range chans {
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func spec(name string, initial grid.Topology, n int) JobSpec {
	return JobSpec{
		Name:        name,
		App:         "lu",
		ProblemSize: n,
		Iterations:  10,
		InitialTopo: initial,
		Chain:       grid.GrowthChain(initial, n, 50),
	}
}

func TestCoreStartsJobWhenProcsAvailable(t *testing.T) {
	c := NewCore(16, false)
	j, started, err := c.Submit(spec("a", topo(2, 2), 8000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0] != j || j.State != Running {
		t.Fatalf("job not started: %v %v", started, j.State)
	}
	if c.Free() != 12 {
		t.Fatalf("free = %d", c.Free())
	}
}

func TestCoreQueuesWhenFull(t *testing.T) {
	c := NewCore(8, false)
	_, _, err := c.Submit(spec("a", topo(2, 4), 8000), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, started, err := c.Submit(spec("b", topo(2, 2), 8000), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 0 || b.State != Queued {
		t.Fatalf("job b should queue: %v %v", started, b.State)
	}
	if c.QueueLen() != 1 {
		t.Fatalf("queue len %d", c.QueueLen())
	}
}

func TestCoreRejectsOversizedJob(t *testing.T) {
	c := NewCore(4, false)
	if _, _, err := c.Submit(spec("big", topo(4, 4), 8000), 0); err == nil {
		t.Fatal("oversized job accepted")
	}
	if _, _, err := c.Submit(JobSpec{Name: "bad"}, 0); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestCoreFCFSBlocksLaterJobsWithoutBackfill(t *testing.T) {
	c := NewCore(10, false)
	c.Submit(spec("a", topo(2, 4), 8000), 0)                      // takes 8, 2 free
	c.Submit(spec("big", topo(2, 3), 12000), 1)                   // needs 6: queues
	small, started, _ := c.Submit(spec("s", topo(1, 2), 8000), 2) // needs 2: would fit
	if len(started) != 0 || small.State != Queued {
		t.Fatal("FCFS must not let the small job jump the queue")
	}
}

func TestCoreBackfillStartsSmallJob(t *testing.T) {
	c := NewCore(10, true)
	c.Submit(spec("a", topo(2, 4), 8000), 0)    // 8 busy, 2 free
	c.Submit(spec("big", topo(2, 3), 12000), 1) // queues (needs 6)
	small, started, _ := c.Submit(spec("s", topo(1, 2), 8000), 2)
	if len(started) != 1 || small.State != Running {
		t.Fatal("backfill should start the 2-proc job")
	}
	if c.Free() != 0 {
		t.Fatalf("free = %d", c.Free())
	}
}

func TestCoreFinishSchedulesQueue(t *testing.T) {
	c := NewCore(8, false)
	a, _, _ := c.Submit(spec("a", topo(2, 4), 8000), 0)
	b, _, _ := c.Submit(spec("b", topo(2, 2), 8000), 1)
	started, err := c.Finish(a.ID, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0] != b || b.State != Running {
		t.Fatal("queued job must start when processors free up")
	}
	if a.EndTime != 100 || a.State != Done {
		t.Fatalf("job a end state %v/%v", a.State, a.EndTime)
	}
}

func TestCoreContactExpandReservesProcs(t *testing.T) {
	c := NewCore(16, false)
	a, _, _ := c.Submit(spec("a", topo(1, 2), 12000), 0)
	d, err := c.Contact(a.ID, topo(1, 2), 129.63, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionExpand || d.Target != topo(2, 2) {
		t.Fatalf("decision %+v", d)
	}
	if c.Free() != 12 || a.Topo != topo(2, 2) {
		t.Fatalf("free %d topo %v", c.Free(), a.Topo)
	}
	// Expansion improved: next contact expands again.
	if _, err := c.ResizeComplete(a.ID, 8.0, 11); err != nil {
		t.Fatal(err)
	}
	d2, err := c.Contact(a.ID, topo(2, 2), 112.52, 8.0, 140)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Action != ActionExpand || d2.Target != topo(2, 3) {
		t.Fatalf("second decision %+v", d2)
	}
	if v, ok := a.Profile.RedistCost(topo(1, 2), topo(2, 2)); !ok || v != 8.0 {
		t.Fatalf("redist record %v/%v", v, ok)
	}
}

func TestCoreContactValidatesCaller(t *testing.T) {
	c := NewCore(16, false)
	a, _, _ := c.Submit(spec("a", topo(2, 2), 8000), 0)
	if _, err := c.Contact(99, topo(2, 2), 1, 0, 1); err == nil {
		t.Fatal("unknown job accepted")
	}
	if _, err := c.Contact(a.ID, topo(4, 4), 1, 0, 1); err == nil {
		t.Fatal("topology mismatch accepted")
	}
	c.Finish(a.ID, 2)
	if _, err := c.Contact(a.ID, topo(2, 2), 1, 0, 3); err == nil {
		t.Fatal("contact from finished job accepted")
	}
}

func TestCoreShrinkFreesProcsOnlyAtResizeComplete(t *testing.T) {
	c := NewCore(12, false)
	a, _, _ := c.Submit(spec("a", topo(1, 2), 12000), 0)
	// Walk the job up to 3x3 so it has shrink points.
	c.Contact(a.ID, topo(1, 2), 130, 0, 1)
	c.ResizeComplete(a.ID, 8, 1)
	c.Contact(a.ID, topo(2, 2), 112, 8, 2)
	c.ResizeComplete(a.ID, 7, 2)
	c.Contact(a.ID, topo(2, 3), 82, 7, 3)
	c.ResizeComplete(a.ID, 5, 3)
	if a.Topo != topo(3, 3) {
		t.Fatalf("topo %v", a.Topo)
	}
	// A queued job arrives needing 4 procs; 3 are idle.
	b, started, _ := c.Submit(spec("b", topo(2, 2), 8000), 4)
	if len(started) != 0 {
		t.Fatal("b should queue (needs 4, only 3 idle)")
	}
	d, err := c.Contact(a.ID, topo(3, 3), 79, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionShrink {
		t.Fatalf("decision %+v, want shrink", d)
	}
	if b.State != Queued {
		t.Fatal("b must not start before the shrink completes")
	}
	started, err = c.ResizeComplete(a.ID, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0] != b || b.State != Running {
		t.Fatal("b must start once the shrink completes")
	}
}

// TestPoolPartialRelease: a shrink gives back part of a job's processors.
// The give-back stays busy until ResizeComplete, then returns to the idle
// counter exactly once; a repeated ResizeComplete must not return it again.
func TestPoolPartialRelease(t *testing.T) {
	c := NewCore(12, false)
	a, _, _ := c.Submit(spec("a", topo(1, 2), 12000), 0)
	c.Contact(a.ID, topo(1, 2), 130, 0, 1)
	c.ResizeComplete(a.ID, 8, 1)
	c.Contact(a.ID, topo(2, 2), 112, 8, 2)
	c.ResizeComplete(a.ID, 7, 2)
	c.Contact(a.ID, topo(2, 3), 82, 7, 3)
	c.ResizeComplete(a.ID, 5, 3)
	if a.Topo.Count() != 9 || c.Free() != 3 {
		t.Fatalf("topo %v free %d, want 9 held and 3 idle", a.Topo, c.Free())
	}
	b, _, _ := c.Submit(spec("b", topo(2, 2), 8000), 4) // needs 4: queues
	d, err := c.Contact(a.ID, topo(3, 3), 79, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionShrink {
		t.Fatalf("decision %+v, want shrink", d)
	}
	freed := 9 - a.Topo.Count()
	if freed <= 0 || freed >= 9 {
		t.Fatalf("shrink to %v is not a partial release of 9", a.Topo)
	}
	if c.Free() != 3 || c.Busy() != 9 {
		t.Fatalf("before ResizeComplete: free %d busy %d, want 3/9", c.Free(), c.Busy())
	}
	if _, err := c.ResizeComplete(a.ID, 4, 6); err != nil {
		t.Fatal(err)
	}
	if b.State != Running {
		t.Fatal("b must start on the released processors")
	}
	want := 3 + freed - b.Topo.Count()
	if c.Free() != want || c.Free()+a.Topo.Count()+b.Topo.Count() != c.Total {
		t.Fatalf("after release: free %d, want %d (a %d, b %d)", c.Free(), want, a.Topo.Count(), b.Topo.Count())
	}
	started, err := c.ResizeComplete(a.ID, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 0 || c.Free() != want {
		t.Fatalf("repeated ResizeComplete released again: free %d, want %d", c.Free(), want)
	}
	c.Finish(a.ID, 8)
	c.Finish(b.ID, 9)
	if c.Free() != c.Total {
		t.Fatalf("free %d of %d after both finish", c.Free(), c.Total)
	}
}

func TestCoreEventsTraceAllocationHistory(t *testing.T) {
	c := NewCore(8, false)
	a, _, _ := c.Submit(spec("a", topo(1, 2), 12000), 0)
	c.Contact(a.ID, topo(1, 2), 130, 0, 10)
	c.ResizeComplete(a.ID, 8, 10)
	c.Finish(a.ID, 50)
	kinds := make([]string, len(c.Events))
	for i, e := range c.Events {
		kinds[i] = e.Kind
	}
	want := []string{"submit", "start", "expand", "end"}
	if len(kinds) != len(want) {
		t.Fatalf("events %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events %v, want %v", kinds, want)
		}
	}
	if c.Events[2].Busy != 4 {
		t.Fatalf("busy after expand = %d", c.Events[2].Busy)
	}
	if c.Events[3].Busy != 0 {
		t.Fatalf("busy after end = %d", c.Events[3].Busy)
	}
}

func TestCoreJobsOrdered(t *testing.T) {
	c := NewCore(50, false)
	c.Submit(spec("a", topo(2, 2), 8000), 0)
	c.Submit(spec("b", topo(2, 2), 8000), 1)
	c.Submit(spec("c", topo(2, 2), 8000), 2)
	jobs := c.Jobs()
	if len(jobs) != 3 || jobs[0].Spec.Name != "a" || jobs[2].Spec.Name != "c" {
		t.Fatalf("jobs %v", jobs)
	}
}

func TestServerLifecycleWithStarter(t *testing.T) {
	var mu sync.Mutex
	startedNames := []string{}
	var srv *Server
	srv = NewServer(8, true, func(j *Job) {
		mu.Lock()
		startedNames = append(startedNames, j.Spec.Name)
		mu.Unlock()
		// Simulate a short run with one resize point.
		ctx := context.Background()
		if _, err := srv.Contact(ctx, j.ID, j.Topo, 0.01, 0); err != nil {
			t.Errorf("contact: %v", err)
		}
		if err := srv.ResizeComplete(ctx, j.ID, 0.001); err != nil {
			t.Errorf("resize complete: %v", err)
		}
		if err := srv.JobEnd(ctx, j.ID); err != nil {
			t.Errorf("job end: %v", err)
		}
	})
	ctx := context.Background()
	a, err := srv.Submit(ctx, spec("a", topo(2, 4), 8000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.Submit(ctx, spec("b", topo(2, 2), 8000))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(ctx, a); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(ctx, b); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(startedNames) != 2 {
		t.Fatalf("started %v", startedNames)
	}
	if srv.Core().Free() != 8 {
		t.Fatalf("free = %d after all jobs done", srv.Core().Free())
	}
}

func TestServerWaitAll(t *testing.T) {
	var srv *Server
	srv = NewServer(4, false, func(j *Job) {
		time.Sleep(time.Millisecond)
		srv.JobEnd(context.Background(), j.ID)
	})
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(context.Background(), spec("j", topo(1, 2), 8000)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.WaitAll(ctx); err != nil {
		t.Fatalf("WaitAll timed out: %v", err)
	}
}

// TestPoolConcurrentChurn hammers the idle counter through the Server from
// many goroutines: concurrent submitters, and one driver per started job
// that expands and shrinks at random resize points before ending. The
// arbiter checks conservation on every contact, under the server lock, and
// after the churn the cluster must be whole.
func TestPoolConcurrentChurn(t *testing.T) {
	const total, submitters, perSubmitter, contacts = 64, 16, 8, 20
	core := NewCore(total, true)
	core.SetArbiter(conservingArbiter{t})
	var srv *Server
	srv = NewServerCore(core, func(j *Job) {
		ctx := context.Background()
		rng := rand.New(rand.NewSource(int64(j.ID)))
		cur := j.Spec.InitialTopo
		iter := 100.0
		for n := 0; n < contacts; n++ {
			d, err := srv.Contact(ctx, j.ID, cur, iter, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if d.Action != ActionNone {
				cur = d.Target
				if err := srv.ResizeComplete(ctx, j.ID, 0.01); err != nil {
					t.Error(err)
					return
				}
			}
			iter *= 0.7 + 0.6*rng.Float64()
		}
		if err := srv.JobEnd(ctx, j.ID); err != nil {
			t.Error(err)
		}
	})
	starts := []grid.Topology{topo(1, 2), topo(2, 2), topo(1, 3)}
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perSubmitter; i++ {
				start := starts[rng.Intn(len(starts))]
				s := spec("churn", start, 12000)
				s.Chain = grid.GrowthChain(start, 12000, total/4)
				if _, err := srv.Submit(context.Background(), s); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitAll(ctx); err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	if core.Free() != total || core.QueueLen() != 0 {
		t.Fatalf("counter leaked: free %d of %d, queue %d", core.Free(), total, core.QueueLen())
	}
	if n := len(core.Jobs()); n != submitters*perSubmitter {
		t.Fatalf("%d jobs recorded, want %d", n, submitters*perSubmitter)
	}
}

// conservingArbiter checks, at every contact, that the idle counter never
// goes negative and that idle + held + pending give-back covers the cluster
// exactly; it then defers to the published policy.
type conservingArbiter struct{ t *testing.T }

func (conservingArbiter) Name() string { return "conserving" }

func (a conservingArbiter) Decide(snap ClusterSnapshot) Decision {
	held := 0
	snap.Cluster.EachRunning(func(v *ContactView) bool {
		held += v.Topo.Count()
		return true
	})
	if snap.Idle < 0 || snap.Idle+held+snap.PendingFree != snap.Total {
		a.t.Errorf("conservation: idle %d + held %d + pending %d != %d", snap.Idle, held, snap.PendingFree, snap.Total)
	}
	return PolicyArbiter{}.Decide(snap)
}

// TestJobFitsSizeClass pins Job to the 256-byte allocation size class: the
// simulator allocates one per submitted job, so a field that pushes it over
// costs the next class up on every job.
func TestJobFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Job{}); n > 256 {
		t.Fatalf("Job is %d bytes, over the 256-byte size class", n)
	}
}
