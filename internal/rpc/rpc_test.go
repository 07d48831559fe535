package rpc_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/reshape"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

func topo(r, c int) grid.Topology { return grid.Topology{Rows: r, Cols: c} }

// dial connects a typed client to addr and closes it when the test ends.
func dial(t *testing.T, addr string, opts ...reshape.Option) *reshape.Client {
	t.Helper()
	cl, err := reshape.Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestRoundTripOverTCP(t *testing.T) {
	ctx := context.Background()
	sched := scheduler.NewServer(8, true, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := dial(t, srv.Addr())

	id, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: "lu", App: "lu", ProblemSize: 12000, Iterations: 10,
		InitialTopo: topo(1, 2),
		Chain:       grid.GrowthChain(topo(1, 2), 12000, 8),
	})
	if err != nil {
		t.Fatal(err)
	}

	d, err := cl.Contact(ctx, id, topo(1, 2), 129.63, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != scheduler.ActionExpand || d.Target != topo(2, 2) {
		t.Fatalf("decision %+v", d)
	}
	if err := cl.ResizeComplete(ctx, id, 8.0); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 8 || st.Free != 4 {
		t.Fatalf("status total/free = %d/%d", st.Total, st.Free)
	}
	if len(st.Jobs) != 1 || st.Jobs[0].State != "running" {
		t.Fatalf("jobs %+v", st.Jobs)
	}

	if err := cl.JobEnd(ctx, id); err != nil {
		t.Fatal(err)
	}
	st, err = cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Free != 8 {
		t.Fatalf("free = %d after end", st.Free)
	}
	if s := srv.Stats(); s.Conns == 0 || s.Requests == 0 {
		t.Fatalf("stats not counting traffic: %+v", s)
	}
}

func TestServerReportsErrors(t *testing.T) {
	ctx := context.Background()
	sched := scheduler.NewServer(4, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := dial(t, srv.Addr())

	if _, err := cl.Contact(ctx, 99, topo(1, 1), 1, 0); err == nil {
		t.Error("contact for unknown job should fail")
	}
	if _, err := cl.Submit(ctx, scheduler.JobSpec{Name: "big", InitialTopo: topo(4, 4)}); err == nil {
		t.Error("oversized job should fail")
	}
	id, err := cl.Submit(ctx, scheduler.JobSpec{Name: "j", App: "lu", ProblemSize: 8000, Iterations: 10,
		InitialTopo: topo(1, 2), Chain: grid.GrowthChain(topo(1, 2), 8000, 4)})
	if err != nil {
		t.Fatal(err)
	}
	var se *reshape.ServerError
	if _, err := cl.Contact(ctx, id, topo(1, 2), math.NaN(), 0); !errors.As(err, &se) {
		t.Errorf("contact with a NaN iteration time: %v, want a ServerError", err)
	}
}

func TestClientDialFailure(t *testing.T) {
	if cl, err := reshape.Dial("127.0.0.1:1", reshape.WithDialTimeout(200*time.Millisecond)); err == nil {
		cl.Close()
		t.Error("expected dial error")
	}
}

func TestClientHonoursContextDeadline(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := dial(t, srv.Addr())
	id, err := cl.Submit(context.Background(), scheduler.JobSpec{
		Name: "j", App: "mw", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := cl.Wait(ctx, id); err == nil {
		t.Fatal("Wait should fail when the deadline expires before JobEnd")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Wait ignored the deadline (took %v)", elapsed)
	}
}

func TestWaitBlocksUntilJobEnd(t *testing.T) {
	ctx := context.Background()
	sched := scheduler.NewServer(4, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := dial(t, srv.Addr())
	id, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: "j", App: "mw", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.Wait(ctx, id) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Wait returned before JobEnd")
	default:
	}
	if err := cl.JobEnd(ctx, id); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never returned")
	}
}

func TestRemoteSchedulerDrivesRealApp(t *testing.T) {
	// End to end over TCP: a real application resized by a remote daemon.
	ctx := context.Background()
	var cl *reshape.Client
	launched := make(chan error, 1)
	sched := scheduler.NewServer(4, true, func(j *scheduler.Job) {
		cfg := apps.Config{App: "lu", N: 8, NB: 2, Iterations: 3}
		err := apps.Launch(cl, j.ID, j.Topo, cfg)
		if err != nil {
			_ = cl.JobEnd(ctx, j.ID)
		}
		launched <- err
	})
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl = dial(t, srv.Addr())

	id, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: "lu", App: "lu", ProblemSize: 8, Iterations: 3,
		InitialTopo: topo(1, 2),
		Chain:       grid.GrowthChain(topo(1, 2), 8, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	// The scheduler finishes the job, releasing Wait, before it acks the
	// app's JobEnd: join the app so the deferred Close cannot sever the
	// connection that ack is still travelling on.
	if err := <-launched; err != nil {
		t.Errorf("launch: %v", err)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Free != 4 {
		t.Errorf("free = %d", st.Free)
	}
	if st.Jobs[0].State != "done" {
		t.Errorf("state %v", st.Jobs[0].State)
	}
}

// TestUngrantedResizeCompleteRefused confirms, over rpc/v2, a resize for a
// running job granted none, a queued job and a finished job: each call
// fails with a ServerError and nothing reaches the journal.
func TestUngrantedResizeCompleteRefused(t *testing.T) {
	ctx := context.Background()
	core := scheduler.NewCore(4, false)
	var journaled atomic.Int32
	core.SetJournal(func(op scheduler.Op) error {
		if op.Kind == scheduler.OpResizeComplete {
			journaled.Add(1)
		}
		return nil
	})
	srv, err := rpc.Serve("127.0.0.1:0", scheduler.NewServerCore(core, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := dial(t, srv.Addr())
	submit := func(name string, at grid.Topology) int {
		id, err := cl.Submit(ctx, scheduler.JobSpec{Name: name, App: "lu", ProblemSize: 8000, Iterations: 10,
			InitialTopo: at, Chain: grid.GrowthChain(at, 8000, 4)})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	running, queued := submit("running", topo(1, 4)), submit("queued", topo(1, 2))
	var se *reshape.ServerError
	for what, id := range map[string]int{"running": running, "queued": queued} {
		if err := cl.ResizeComplete(ctx, id, 0.5); !errors.As(err, &se) {
			t.Errorf("%s job: %v, want a ServerError", what, err)
		}
	}
	if err := cl.JobEnd(ctx, running); err != nil {
		t.Fatal(err)
	}
	if err := cl.ResizeComplete(ctx, running, 0.5); !errors.As(err, &se) {
		t.Errorf("finished job: %v, want a ServerError", err)
	}
	if n := journaled.Load(); n != 0 {
		t.Fatalf("refused confirmations journaled %d records", n)
	}
}
