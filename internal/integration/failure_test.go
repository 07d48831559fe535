package integration

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/durability"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/reshape"
	"repro/internal/resize"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// crashingWorker fails after two iterations, exercising the System
// Monitor's job-error recovery path end to end. All ranks fail together —
// just as an MPI job aborts as a whole when one process dies.
func crashingWorker(s *resize.Session) error {
	for s.Iter() < 10 {
		if s.Iter() == 2 {
			return fmt.Errorf("injected fault at iteration %d on rank %d", s.Iter(), s.Comm().Rank())
		}
		st, err := s.ResizeAveraged(0.001)
		if err != nil {
			return err
		}
		if st == resize.Retired {
			return nil
		}
	}
	return s.Done()
}

func TestJobErrorRecoversProcessorsAndStartsQueue(t *testing.T) {
	var srv *scheduler.Server
	srv = scheduler.NewServer(4, false, func(j *scheduler.Job) {
		switch j.Spec.Name {
		case "crasher":
			world := mpi.NewWorld()
			err := world.Run(j.Topo.Count(), func(c *mpi.Comm) error {
				sess, err := resize.NewSession(srv, j.ID, c, j.Topo, crashingWorker)
				if err != nil {
					return err
				}
				return crashingWorker(sess)
			})
			if err == nil {
				t.Error("crasher should have failed")
			}
			// The per-node application monitor reports the failure.
			if err := srv.JobError(context.Background(), j.ID); err != nil {
				t.Errorf("job error: %v", err)
			}
		case "queued":
			cfg := apps.Config{App: "fft", N: 8, NB: 2, Iterations: 2}
			if err := apps.Launch(srv, j.ID, j.Topo, cfg); err != nil {
				t.Errorf("queued job: %v", err)
				_ = srv.JobError(context.Background(), j.ID)
			}
		}
	})

	crasher, err := srv.Submit(context.Background(), scheduler.JobSpec{
		Name: "crasher", App: "custom", Iterations: 10,
		InitialTopo: grid.Topology{Rows: 2, Cols: 2},
		Chain:       []grid.Topology{{Rows: 2, Cols: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit(context.Background(), scheduler.JobSpec{
		Name: "queued", App: "fft", ProblemSize: 8, Iterations: 2,
		InitialTopo: grid.Row1D(2),
		Chain:       []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Wait(ctx, crasher); err != nil {
		t.Fatalf("jobs did not finish after failure injection: %v", err)
	}
	if err := srv.Wait(ctx, queued); err != nil {
		t.Fatalf("jobs did not finish after failure injection: %v", err)
	}

	cj, _ := srv.Core().Job(crasher)
	if cj.State != scheduler.Done {
		t.Errorf("crasher state %v", cj.State)
	}
	qj, _ := srv.Core().Job(queued)
	if qj.State != scheduler.Done {
		t.Errorf("queued job state %v", qj.State)
	}
	if srv.Core().Free() != 4 {
		t.Errorf("free = %d, want full pool back", srv.Core().Free())
	}
	// The trace must contain the error event.
	sawError := false
	for _, e := range srv.Core().Events {
		if e.Kind == "error" && e.Job == "crasher" {
			sawError = true
		}
	}
	if !sawError {
		t.Error("error event missing from trace")
	}
}

func TestCGAppUnderRealScheduler(t *testing.T) {
	cfgs := map[string]apps.Config{
		"cg": {App: "cg", N: 12, NB: 2, Iterations: 5, Sweeps: 3},
	}
	srv, errs := startServer(t, 6, cfgs)
	job, err := srv.Submit(context.Background(), scheduler.JobSpec{
		Name: "cg", App: "cg", ProblemSize: 12, Iterations: 5,
		InitialTopo: grid.Topology{Rows: 1, Cols: 2},
		Chain:       grid.GrowthChain(grid.Topology{Rows: 1, Cols: 2}, 12, 6),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, srv, []int{job})
	checkErrs(t, errs)
	j, _ := srv.Core().Job(job)
	if j.State != scheduler.Done {
		t.Fatalf("state %v", j.State)
	}
}

// TestSchedulerRestartRecoversOverRPC kills the whole control plane — the
// rpc listener and the scheduler behind it — and boots a replacement from
// the WAL on the same address. The externally driven "application" (this
// test) survives the outage, as real jobs survive a reshaped restart: its
// reshape.Client retries its resize-point contact until the daemon is
// back, the auto-reconnect layer redials, and the job runs to completion
// against the recovered scheduler. The watch stream resubscribes on its
// own and continues with gap-free ascending sequence numbers.
func TestSchedulerRestartRecoversOverRPC(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()
	topoA := grid.Topology{Rows: 2, Cols: 2}

	// Boot 1: durable scheduler, externally driven jobs (nil starter).
	core := scheduler.NewCore(4, false)
	var srv *scheduler.Server
	st, rec, err := durability.Open(dir, durability.Options{
		Sync: durability.SyncAlways,
		Capture: func() (*scheduler.CoreState, uint64) {
			return core.PersistState(), srv.Seq()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != nil || len(rec.Ops) > 0 {
		t.Fatal("fresh WAL directory was not empty")
	}
	core.SetJournal(st.Append)
	srv = scheduler.NewServerCore(core, nil)
	rpcSrv, err := rpc.Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	addr := rpcSrv.Addr()

	cli, err := reshape.Dial(addr, reshape.WithDialTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sub, err := cli.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	// Watch subscribes asynchronously; wait until the server has it
	// registered so the submit events below are guaranteed to stream.
	for rpcSrv.Stats().Watches == 0 {
		if ctx.Err() != nil {
			t.Fatal("watch never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	idA, err := cli.Submit(ctx, scheduler.JobSpec{
		Name: "runner", App: "custom", Iterations: 10,
		InitialTopo: topoA, Chain: []grid.Topology{topoA},
	})
	if err != nil {
		t.Fatal(err)
	}
	idB, err := cli.Submit(ctx, scheduler.JobSpec{
		Name: "waiter", App: "custom", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Contact(ctx, idA, topoA, 1.5, 0); err != nil {
		t.Fatalf("pre-crash contact: %v", err)
	}

	// Drain the pre-crash stream: submit A, start A, submit B.
	var lastSeq uint64
	for i := 0; i < 3; i++ {
		select {
		case e := <-sub.C:
			if e.Seq <= lastSeq {
				t.Fatalf("pre-crash seq regressed: %d after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
		case <-ctx.Done():
			t.Fatal("timed out waiting for pre-crash events")
		}
	}

	// Kill the daemon. SyncAlways means everything acknowledged is on disk;
	// nothing else is flushed on the way down.
	rpcSrv.Close()
	st.Close()

	// The surviving application retries its resize-point contact through
	// the outage, exactly like a worker that found the daemon gone.
	contactOK := make(chan scheduler.Decision, 1)
	go func() {
		for ctx.Err() == nil {
			cctx, ccancel := context.WithTimeout(ctx, 2*time.Second)
			d, err := cli.Contact(cctx, idA, topoA, 1.5, 0)
			ccancel()
			if err == nil {
				contactOK <- d
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()

	// Boot 2: recover from the WAL onto the same address.
	time.Sleep(100 * time.Millisecond) // let the retry loop fail at least once
	st2, rec2, err := durability.Open(dir, durability.Options{Sync: durability.SyncAlways})
	if err != nil {
		t.Fatalf("reopen WAL: %v", err)
	}
	defer st2.Close()
	core2, info, err := rec2.Restore(func(cs *scheduler.CoreState) (*scheduler.Core, error) {
		if cs == nil {
			return scheduler.NewCore(4, false), nil
		}
		return scheduler.NewCoreFromState(cs)
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if info.Jobs != 2 {
		t.Fatalf("recovered %d jobs, want 2", info.Jobs)
	}
	if jA, _ := core2.Job(idA); jA.State != scheduler.Running || jA.Topo != topoA {
		t.Fatalf("job A not recovered running on %v: %+v", topoA, jA)
	}
	if jB, _ := core2.Job(idB); jB.State != scheduler.Queued {
		t.Fatalf("job B not recovered queued: %+v", jB)
	}
	core2.SetJournal(st2.Append)
	srv2 := scheduler.NewServerRecovered(core2, info.Seq, info.Clock, nil)
	// Externally driven jobs reconnect on their own: no RelaunchRunning.
	var rpcSrv2 *rpc.Server
	for deadline := time.Now().Add(5 * time.Second); ; {
		rpcSrv2, err = rpc.Serve(addr, srv2)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer rpcSrv2.Close()

	// The worker's retried contact lands on the recovered scheduler.
	select {
	case <-contactOK:
	case <-ctx.Done():
		t.Fatal("contact never succeeded after restart")
	}

	// Wait for the watch stream to resubscribe before driving transitions,
	// so continuity is checked deterministically.
	for rpcSrv2.Stats().Watches == 0 {
		if ctx.Err() != nil {
			t.Fatal("watch never resubscribed after restart")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Finish A; the recovered queue starts B; finish B.
	if err := cli.JobEnd(ctx, idA); err != nil {
		t.Fatalf("job end A: %v", err)
	}
	if err := cli.Wait(ctx, idA); err != nil {
		t.Fatal(err)
	}
	if err := cli.JobEnd(ctx, idB); err != nil {
		t.Fatalf("job end B: %v", err)
	}
	if err := cli.Wait(ctx, idB); err != nil {
		t.Fatal(err)
	}

	// Post-restart events continue the sequence: end A, start B, end B,
	// each with a seq strictly above the pre-crash high-water mark.
	kinds := map[string]bool{}
	for len(kinds) < 3 {
		select {
		case e := <-sub.C:
			if e.Seq <= lastSeq {
				t.Fatalf("seq regressed across restart: %d after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			kinds[e.Kind+"/"+e.Job] = true
		case <-ctx.Done():
			t.Fatalf("timed out waiting for post-restart events; saw %v", kinds)
		}
	}
	for _, want := range []string{"end/runner", "start/waiter", "end/waiter"} {
		if !kinds[want] {
			t.Fatalf("missing post-restart event %s (saw %v)", want, kinds)
		}
	}

	status, err := cli.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Free != 4 || status.QueueLen != 0 {
		t.Fatalf("recovered cluster did not drain: %+v", status)
	}
}
