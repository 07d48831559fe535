package scheduler

import (
	"context"
	"errors"
	"testing"
	"time"
)

func collectEvents(t *testing.T, sub *Subscription, n int) []JobEvent {
	t.Helper()
	var out []JobEvent
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				t.Fatalf("stream closed after %d events, want %d", len(out), n)
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out after %d events, want %d", len(out), n)
		}
	}
	return out
}

func TestServerWatchStreamsTransitions(t *testing.T) {
	ctx := context.Background()
	srv := NewServer(8, true, nil)
	sub, err := srv.Watch(ctx, AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	id, err := srv.Submit(ctx, spec("a", topo(2, 2), 8000))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.JobEnd(ctx, id); err != nil {
		t.Fatal(err)
	}
	evs := collectEvents(t, sub, 3)
	kinds := []string{evs[0].Kind, evs[1].Kind, evs[2].Kind}
	if kinds[0] != "submit" || kinds[1] != "start" || kinds[2] != "end" {
		t.Fatalf("kinds %v", kinds)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq %d at position %d", ev.Seq, i)
		}
		if ev.JobID != id {
			t.Fatalf("event for job %d, want %d", ev.JobID, id)
		}
		if ev.Busy+ev.Free != 8 {
			t.Fatalf("busy+free = %d", ev.Busy+ev.Free)
		}
	}
}

func TestServerWatchFiltersByJob(t *testing.T) {
	ctx := context.Background()
	srv := NewServer(8, true, nil)
	a, err := srv.Submit(ctx, spec("a", topo(1, 2), 8000))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.Watch(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	// Another job's events must not reach this subscription; history from
	// before the Watch call must not replay.
	b, err := srv.Submit(ctx, spec("b", topo(1, 2), 8000))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.JobEnd(ctx, b); err != nil {
		t.Fatal(err)
	}
	if err := srv.JobEnd(ctx, a); err != nil {
		t.Fatal(err)
	}
	evs := collectEvents(t, sub, 1)
	if evs[0].Kind != "end" || evs[0].JobID != a {
		t.Fatalf("event %+v", evs[0])
	}
}

func TestServerWatchCancelClosesStream(t *testing.T) {
	srv := NewServer(4, false, nil)
	sub, err := srv.Watch(context.Background(), AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	select {
	case _, ok := <-sub.C:
		if ok {
			t.Fatal("got event after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream not closed after cancel")
	}
	// Publishing after cancel must not panic or block.
	if _, err := srv.Submit(context.Background(), spec("a", topo(1, 2), 8000)); err != nil {
		t.Fatal(err)
	}
}

// TestServerWatchNeedsTrace: events are published from the core's
// allocation trace, so a core without one must refuse a watch instead of
// handing out a stream that never delivers.
func TestServerWatchNeedsTrace(t *testing.T) {
	c := NewCore(4, false)
	c.DisableTrace()
	srv := NewServerCore(c, nil)
	if sub, err := srv.Watch(context.Background(), AllJobs); err == nil {
		sub.Cancel()
		t.Fatal("Watch on a core without its allocation trace returned a subscription")
	}
	if n := srv.Subscribers(); n != 0 {
		t.Fatalf("refused watch left %d subscribers", n)
	}
}

func TestStatusSnapshot(t *testing.T) {
	ctx := context.Background()
	srv := NewServer(4, false, nil)
	running, err := srv.Submit(ctx, spec("r", topo(2, 2), 8000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(ctx, spec("q", topo(2, 2), 8000)); err != nil {
		t.Fatal(err)
	}
	st, err := srv.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 4 || st.Free != 0 || st.Busy != 4 || st.QueueLen != 1 {
		t.Fatalf("status %+v", st)
	}
	if len(st.Jobs) != 2 || st.Jobs[0].ID != running || st.Jobs[0].State != "running" || st.Jobs[0].Procs != 4 {
		t.Fatalf("jobs %+v", st.Jobs)
	}
	if st.Jobs[1].State != "queued" || st.Jobs[1].Procs != 0 {
		t.Fatalf("queued job %+v", st.Jobs[1])
	}
}

// TestServerCommitBarrierOrdersPublication drives a Server whose core has a
// commit barrier the test controls: while the barrier blocks, the op is in
// the core (Status, Seq) and nowhere else; the events of acknowledged ops
// are published in trace order; and an op whose commit fails is never
// published, launched or acknowledged.
func TestServerCommitBarrierOrdersPublication(t *testing.T) {
	ctx := context.Background()
	core := NewCore(8, true)
	core.SetJournal(func(Op) error { return nil })
	gate := make(chan error)
	core.SetCommit(func() error { return <-gate })
	launched := make(chan int, 4)
	srv := NewServerCore(core, func(j *Job) { launched <- j.ID })
	sub, err := srv.Watch(ctx, AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	acks := make(chan error, 3)
	submit := func(name string) {
		_, err := srv.Submit(ctx, spec(name, topo(1, 2), 8000))
		acks <- err
	}
	go submit("a")
	go submit("b")
	// Both ops are applied once Status, which queues behind them for the
	// lock, shows them.
	for {
		cs, err := srv.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs.Jobs) == 2 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if srv.Seq() != 4 {
		t.Fatalf("Seq %d with four events recorded and none published", srv.Seq())
	}
	select {
	case ev := <-sub.C:
		t.Fatalf("event %q published before any commit returned", ev.Kind)
	case id := <-launched:
		t.Fatalf("job %d launched before any commit returned", id)
	case err := <-acks:
		t.Fatalf("submit acknowledged (%v) before its commit returned", err)
	default:
	}

	// Commits return until both ops are acknowledged: the committer covers
	// whatever batches were handed over since its last commit, so the two
	// ops take one commit call or two. By each ack, everything up to that
	// op's own events is published, in order.
	var evs []JobEvent
	for acked := 0; acked < 2; {
		select {
		case gate <- nil:
		case err := <-acks:
			if err != nil {
				t.Fatal(err)
			}
			acked++
			evs = append(evs, collectEvents(t, sub, 2*acked-len(evs))...)
		}
	}
	for i, ev := range evs {
		if e := eventAt(core, i); ev.Seq != uint64(i+1) || ev.Kind != e.Kind || ev.JobID != e.JobID {
			t.Fatalf("event %d is %q of job %d with seq %d; the trace has %q of job %d",
				i, ev.Kind, ev.JobID, ev.Seq, eventAt(core, i).Kind, eventAt(core, i).JobID)
		}
	}
	<-launched
	<-launched

	// A failed commit: the op stays applied, and invisible.
	lost := errors.New("disk gone")
	go submit("c")
	gate <- lost
	if err := <-acks; !errors.Is(err, lost) {
		t.Fatalf("submit with a failed commit returned %v", err)
	}
	if _, err := srv.Status(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.C:
		t.Fatalf("event %q published for an op whose commit failed", ev.Kind)
	case id := <-launched:
		t.Fatalf("job %d launched by an op whose commit failed", id)
	default:
	}
	if got := srv.Seq(); got != uint64(core.EventCount()) {
		t.Fatalf("Seq %d, trace holds %d events", got, core.EventCount())
	}
}
