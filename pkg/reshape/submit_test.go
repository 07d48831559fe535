package reshape_test

import (
	"context"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
	"repro/pkg/reshape"
)

// TestSubmitWithPriority covers the SDK submission surface: the spec
// reaches the scheduler with the option-applied priority and the queue
// honours it.
func TestSubmitWithPriority(t *testing.T) {
	srv := scheduler.NewServer(4, false, nil)
	ctx := context.Background()
	start := grid.Topology{Rows: 2, Cols: 2}
	spec := scheduler.JobSpec{
		Name: "sdk", App: "lu", ProblemSize: 8000, Iterations: 5,
		InitialTopo: start, Chain: []grid.Topology{start},
	}

	hogID, err := reshape.Submit(ctx, srv, spec)
	if err != nil {
		t.Fatal(err)
	}
	loID, err := reshape.Submit(ctx, srv, spec)
	if err != nil {
		t.Fatal(err)
	}
	hiID, err := reshape.Submit(ctx, srv, spec, reshape.WithPriority(3))
	if err != nil {
		t.Fatal(err)
	}

	st, err := srv.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prio := map[int]int{}
	for _, j := range st.Jobs {
		prio[j.ID] = j.Priority
	}
	if prio[hiID] != 3 || prio[loID] != 0 {
		t.Fatalf("priorities %v: want job %d at 3, job %d at 0", prio, hiID, loID)
	}

	// The priority submission overtakes the earlier one in the queue.
	started, err := srv.Core().Finish(hogID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(started) != 1 || started[0].ID != hiID {
		t.Fatalf("started %v, want priority job %d", started, hiID)
	}
}

// TestSubmitWithTenant: the tenant set on the spec shows up on the job
// and in the per-tenant status rollup.
func TestSubmitWithTenant(t *testing.T) {
	srv := scheduler.NewServer(8, false, nil)
	ctx := context.Background()
	start := grid.Topology{Rows: 2, Cols: 2}
	spec := scheduler.JobSpec{
		Name: "sdk", App: "lu", ProblemSize: 8000, Iterations: 5,
		InitialTopo: start, Chain: []grid.Topology{start}, Tenant: "acme",
	}

	id, err := reshape.Submit(ctx, srv, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, j := range st.Jobs {
		if j.ID == id && j.Tenant == "acme" {
			found = true
		}
	}
	if !found {
		t.Fatalf("job %d not reported under tenant acme: %+v", id, st.Jobs)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "acme" || st.Tenants[0].Procs != 4 {
		t.Fatalf("tenant rollup %+v, want acme with 4 procs", st.Tenants)
	}
}
