package rpc_test

import (
	"context"
	"testing"

	"repro/internal/grid"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// TestPrioritySurvivesTheWire pins the Priority threading of the
// arbitration layer end to end: a JobSpec submitted over the wire must
// reach the scheduler with its priority intact, order the wait queue by
// it, and report it back through the typed Status snapshot.
func TestPrioritySurvivesTheWire(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := dial(t, srv.Addr())

	ctx := context.Background()
	start := grid.Topology{Rows: 2, Cols: 2}
	spec := func(name string, prio int) scheduler.JobSpec {
		return scheduler.JobSpec{
			Name: name, App: "lu", ProblemSize: 8000, Iterations: 10,
			Priority: prio, InitialTopo: start,
			Chain: []grid.Topology{start},
		}
	}

	// The hog fills the pool so later submissions queue in priority order.
	if _, err := cl.Submit(ctx, spec("hog", 0)); err != nil {
		t.Fatal(err)
	}
	lowID, err := cl.Submit(ctx, spec("low", 1))
	if err != nil {
		t.Fatal(err)
	}
	highID, err := cl.Submit(ctx, spec("high", 7))
	if err != nil {
		t.Fatal(err)
	}

	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int]scheduler.JobInfo{}
	for _, j := range st.Jobs {
		byID[j.ID] = j
	}
	if got := byID[lowID].Priority; got != 1 {
		t.Errorf("job %d priority %d, want 1", lowID, got)
	}
	if got := byID[highID].Priority; got != 7 {
		t.Errorf("job %d priority %d, want 7", highID, got)
	}

	// Queue order follows priority: the core's head must be the high-prio
	// submission even though it arrived last.
	core := sched.Core()
	j, ok := core.Job(highID)
	if !ok || j.State != scheduler.Queued {
		t.Fatalf("high-priority job missing/queued? %v", ok)
	}
	started, err := core.Finish(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0].ID != highID {
		t.Fatalf("started %v, want the priority-7 job %d first", started, highID)
	}
}
