package rpc_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/resize"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// outcome is everything a transport can influence: the decision stream the
// client observed and the scheduler's final state (timestamps excluded —
// they are wall-clock).
type outcome struct {
	Decisions []scheduler.Decision
	Errs      []bool
	Total     int
	Free      int
	QueueLen  int
	Jobs      []jobOutcome
}

type jobOutcome struct {
	Name  string
	State string
	Topo  grid.Topology
}

// driveSchedule replays one fixed op sequence through any capability
// implementation and records the outcome.
func driveSchedule(t *testing.T, cl resize.Scheduler) outcome {
	t.Helper()
	ctx := context.Background()
	var o outcome
	note := func(err error) { o.Errs = append(o.Errs, err != nil) }
	decide := func(d scheduler.Decision, err error) {
		note(err)
		o.Decisions = append(o.Decisions, d)
	}
	topo := func(r, c int) grid.Topology { return grid.Topology{Rows: r, Cols: c} }

	a, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: "a", App: "lu", ProblemSize: 12000, Iterations: 10,
		InitialTopo: topo(1, 2), Chain: grid.GrowthChain(topo(1, 2), 12000, 16),
	})
	note(err)
	b, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: "b", App: "lu", ProblemSize: 8000, Iterations: 8,
		InitialTopo: topo(2, 2), Chain: grid.GrowthChain(topo(2, 2), 8000, 16),
	})
	note(err)
	c, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: "c", App: "mw", Iterations: 4,
		InitialTopo: grid.Row1D(4), Chain: []grid.Topology{grid.Row1D(4), grid.Row1D(6)},
	})
	note(err)

	// a: 1x2 -> 2x2 (the paper's canonical first expansion).
	decide(cl.Contact(ctx, a, topo(1, 2), 129.63, 0))
	note(cl.ResizeComplete(ctx, a, 8.0))
	// b reports from its static 2x2.
	decide(cl.Contact(ctx, b, topo(2, 2), 55.0, 0))
	// a keeps probing from its new configuration.
	decide(cl.Contact(ctx, a, topo(2, 2), 112.52, 8.0))
	note(cl.ResizeComplete(ctx, a, 5.0))
	// Error paths must agree too: unknown job, topology mismatch.
	_, err = cl.Contact(ctx, 9999, topo(1, 1), 1, 0)
	note(err)
	_, err = cl.Contact(ctx, a, topo(9, 9), 1, 0)
	note(err)

	note(cl.JobEnd(ctx, b))
	decide(cl.Contact(ctx, a, topoFromLast(o.Decisions), 80.0, 5.0))
	note(cl.JobEnd(ctx, a))
	// c fails: the System Monitor's job-error path must be identical too.
	note(cl.JobError(ctx, c))
	note(cl.JobError(ctx, c)) // double error must be rejected everywhere

	st, err := cl.Status(ctx)
	note(err)
	o.Total, o.Free, o.QueueLen = st.Total, st.Free, st.QueueLen
	for _, j := range st.Jobs {
		o.Jobs = append(o.Jobs, jobOutcome{Name: j.Name, State: j.State, Topo: j.Topo})
	}
	return o
}

// topoFromLast returns the topology job a holds after its last granted
// decision (falls back to the post-first-expansion 2x2).
func topoFromLast(ds []scheduler.Decision) grid.Topology {
	for i := len(ds) - 1; i >= 0; i-- {
		if ds[i].Action == scheduler.ActionExpand || ds[i].Action == scheduler.ActionShrink {
			return ds[i].Target
		}
	}
	return grid.Topology{Rows: 2, Cols: 2}
}

// TestWireAndInProcessAgree pins the wire protocol to the in-process
// scheduler.Server: the same op sequence, error paths included, must
// produce identical scheduler outcomes through reshape.Client over TCP and
// through direct calls.
func TestWireAndInProcessAgree(t *testing.T) {
	sched := scheduler.NewServer(16, true, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wire := driveSchedule(t, dial(t, srv.Addr()))
	local := driveSchedule(t, scheduler.NewServer(16, true, nil))

	if !reflect.DeepEqual(wire, local) {
		t.Errorf("wire and in-process outcomes differ:\nwire:  %+v\nlocal: %+v", wire, local)
	}
}
