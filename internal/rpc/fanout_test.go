package rpc_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// TestWatchFanOutStress floods the v2 watch broker: fanoutConns
// connections each holding fanoutSubsPerConn multiplexed AllJobs
// subscriptions (~50k subscribers in the non-race build), plus one wedged
// connection that subscribes identically and then never reads a byte.
// Every healthy subscriber must receive every event of three submitted
// jobs, and the wedged connection must cost the healthy ones nothing: its
// dispatch goroutines block on its dead socket, and that holds back only
// its own subscriptions' feeders, never the scheduler lock or another
// subscriber.
func TestWatchFanOutStress(t *testing.T) {
	sched := scheduler.NewServer(16, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	subscribe := func(nc net.Conn) error {
		if _, err := nc.Write([]byte{rpc.MagicV2}); err != nil {
			return err
		}
		fw := rpc.NewFrameWriter(nc)
		for id := 1; id <= fanoutSubsPerConn; id++ {
			if err := fw.Write(rpc.Frame{ID: uint64(id), Op: rpc.OpWatch, JobID: scheduler.AllJobs}); err != nil {
				return err
			}
		}
		return nil
	}

	got := make([]atomic.Int64, fanoutConns)
	for i := 0; i < fanoutConns; i++ {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if err := subscribe(nc); err != nil {
			t.Fatal(err)
		}
		go func(i int, nc net.Conn) {
			fr := rpc.NewFrameReader(bufio.NewReader(nc))
			for {
				var r rpc.Reply
				if err := fr.Read(&r); err != nil {
					return
				}
				if r.Event != nil {
					got[i].Add(1)
				}
			}
		}(i, nc)
	}
	// The wedged connection: full set of subscriptions, zero reads.
	wedged, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()
	if err := subscribe(wedged); err != nil {
		t.Fatal(err)
	}

	// OpWatch frames dispatch concurrently; wait until the broker has every
	// subscriber registered before generating events, so "received all
	// events" is exact.
	wantSubs := (fanoutConns + 1) * fanoutSubsPerConn
	deadline := time.Now().Add(60 * time.Second)
	for sched.Subscribers() < wantSubs {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d subscriptions registered", sched.Subscribers(), wantSubs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Three jobs on a 16-processor pool: all start immediately, so each
	// subscriber is owed exactly 6 events (3 submits + 3 starts).
	ctx := context.Background()
	cl := dial(t, srv.Addr())
	start := grid.Topology{Rows: 2, Cols: 2}
	for i := 0; i < 3; i++ {
		if _, err := cl.Submit(ctx, scheduler.JobSpec{
			Name: fmt.Sprintf("j%d", i), App: "lu", ProblemSize: 8000, Iterations: 10,
			InitialTopo: start, Chain: []grid.Topology{start},
		}); err != nil {
			t.Fatal(err)
		}
	}

	want := int64(6 * fanoutSubsPerConn)
	for {
		done := 0
		for i := range got {
			if got[i].Load() >= want {
				done++
			}
		}
		if done == fanoutConns {
			break
		}
		if time.Now().After(deadline) {
			short := 0
			for i := range got {
				if got[i].Load() < want {
					short++
				}
			}
			t.Fatalf("%d of %d healthy connections still short of %d events (wedged connection stalled the broker?)",
				short, fanoutConns, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := range got {
		if n := got[i].Load(); n != want {
			t.Errorf("conn %d received %d events, want exactly %d", i, n, want)
		}
	}
	// The control plane must still answer while the wedged connection's
	// dispatch goroutines sit blocked on its socket.
	if _, err := cl.Status(ctx); err != nil {
		t.Fatalf("scheduler unresponsive alongside a wedged watcher: %v", err)
	}
	// A connection's subscriptions reply through one group writer, so
	// their events share writes.
	if st := srv.Stats(); st.Flushes >= st.FramesOut {
		t.Errorf("%d writes for %d reply frames: nothing was batched", st.Flushes, st.FramesOut)
	}
}

// TestWatchBurstSharesWrites publishes a burst of events faster than one
// subscriber's stream can write them one by one: the watch pump queues
// every event already buffered before it flushes, so the burst arrives
// complete in fewer writes than events.
func TestWatchBurstSharesWrites(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{rpc.MagicV2}); err != nil {
		t.Fatal(err)
	}
	if err := rpc.NewFrameWriter(nc).Write(rpc.Frame{ID: 1, Op: rpc.OpWatch, JobID: scheduler.AllJobs}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); sched.Subscribers() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("watch subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	var got atomic.Int64
	go func() {
		fr := rpc.NewFrameReader(bufio.NewReader(nc))
		for {
			var r rpc.Reply
			if err := fr.Read(&r); err != nil {
				return
			}
			if r.Event != nil {
				got.Add(1)
			}
		}
	}()

	// 150 submissions on a 4-processor pool: one start, 149 queued — 151
	// events.
	const events = 151
	before := srv.Stats()
	ctx := context.Background()
	start := grid.Topology{Rows: 2, Cols: 2}
	for i := 0; i < events-1; i++ {
		if _, err := sched.Submit(ctx, scheduler.JobSpec{
			Name: fmt.Sprintf("b%d", i), App: "lu", ProblemSize: 8000, Iterations: 10,
			InitialTopo: start, Chain: []grid.Topology{start},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); got.Load() < events; {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber got %d of %d events", got.Load(), events)
		}
		time.Sleep(time.Millisecond)
	}
	after := srv.Stats()
	frames, flushes := after.FramesOut-before.FramesOut, after.Flushes-before.Flushes
	if frames != events {
		t.Fatalf("%d reply frames for %d events", frames, events)
	}
	if flushes >= events {
		t.Fatalf("%d events in %d writes: the burst was not batched", events, flushes)
	}
	t.Logf("%d events in %d writes", events, flushes)
}

// TestWatchLagIsLossless: a subscriber that reads nothing while 401 events
// are published holds back only its own stream. Every Submit returns while
// it lags, a draining subscriber beside it gets every event meanwhile, and
// once it reads it gets all 401 events, as Seq 1..401 in order, with
// nothing dropped.
func TestWatchLagIsLossless(t *testing.T) {
	srv := scheduler.NewServer(4, false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	fast, err := srv.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	var fastGot atomic.Int64
	go func() {
		for range fast.C {
			fastGot.Add(1)
		}
	}()
	slow, err := srv.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		t.Fatal(err)
	}

	// 400 submissions on a 4-processor pool: one start, 399 queued — 401
	// events, well past the 256 a subscription's channel buffers.
	const wantEvents = 401
	submitted := make(chan error, 1)
	go func() {
		start := grid.Topology{Rows: 2, Cols: 2}
		for i := 0; i < wantEvents-1; i++ {
			if _, err := srv.Submit(ctx, scheduler.JobSpec{
				Name: fmt.Sprintf("q%d", i), App: "lu", ProblemSize: 8000, Iterations: 10,
				InitialTopo: start, Chain: []grid.Topology{start},
			}); err != nil {
				submitted <- fmt.Errorf("submit %d: %w", i, err)
				return
			}
		}
		submitted <- nil
	}()
	deadline := time.Now().Add(30 * time.Second)
	select {
	case err := <-submitted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Until(deadline)):
		t.Fatal("submits blocked behind a subscriber that reads nothing")
	}
	for fastGot.Load() < wantEvents {
		if time.Now().After(deadline) {
			t.Fatalf("draining subscriber got %d of %d events while the other lagged", fastGot.Load(), wantEvents)
		}
		time.Sleep(time.Millisecond)
	}

	for seq := uint64(1); seq <= wantEvents; seq++ {
		select {
		case ev, ok := <-slow.C:
			if !ok {
				t.Fatalf("lagging subscriber's stream closed after %d events", seq-1)
			}
			if ev.Seq != seq {
				t.Fatalf("lagging subscriber got seq %d, want %d", ev.Seq, seq)
			}
		case <-time.After(time.Until(deadline)):
			t.Fatalf("lagging subscriber got %d of %d events", seq-1, wantEvents)
		}
	}
	if d := slow.Dropped(); d != 0 {
		t.Errorf("lagging subscriber dropped %d events", d)
	}
}

// TestWatchStreamMirrorsTrace holds what a v2 watch delivers to the core's
// allocation trace, field by field: event i of the trace arrives as Seq
// i+1 with its time, job, kind, topology and busy count, and Free is the
// pool minus Busy. A one-job watch gets that job's events with the same
// numbers.
func TestWatchStreamMirrorsTrace(t *testing.T) {
	sched := scheduler.NewServer(8, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cl := dial(t, srv.Addr())
	all, err := cl.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	one, err := cl.Watch(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for sched.Subscribers() < 2 {
		time.Sleep(time.Millisecond)
	}

	chain := []grid.Topology{{Rows: 1, Cols: 2}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 4}}
	spec := func(name string) scheduler.JobSpec {
		return scheduler.JobSpec{Name: name, App: "lu", ProblemSize: 8000, Iterations: 10, InitialTopo: chain[0], Chain: chain}
	}
	a, err := sched.Submit(ctx, spec("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched.Submit(ctx, spec("beta"))
	if err != nil || b != 1 {
		t.Fatalf("second submit got job %d, %v; the one-job watch is on job 1", b, err)
	}
	d, err := sched.Contact(ctx, a, chain[0], 100, 0)
	if err != nil || d.Action != scheduler.ActionExpand {
		t.Fatalf("contact: %+v, %v; want an expansion", d, err)
	}
	if err := sched.ResizeComplete(ctx, a, 1); err != nil {
		t.Fatal(err)
	}
	if err := sched.JobError(ctx, b); err != nil {
		t.Fatal(err)
	}
	if err := sched.JobEnd(ctx, a); err != nil {
		t.Fatal(err)
	}

	core := sched.Core()
	var want []scheduler.JobEvent
	for i, e := range core.Events {
		want = append(want, scheduler.JobEvent{
			Seq: uint64(i + 1), Time: e.Time, JobID: e.JobID, Job: e.Job, Kind: e.Kind,
			Topo: e.Topo, Busy: e.Busy, Free: core.Total - e.Busy,
		})
	}
	if len(want) != 7 {
		t.Fatalf("trace holds %d events, want 7", len(want))
	}
	recv := func(sub *scheduler.Subscription, n int) []scheduler.JobEvent {
		var got []scheduler.JobEvent
		for len(got) < n {
			select {
			case ev := <-sub.C:
				got = append(got, ev)
			case <-time.After(10 * time.Second):
				t.Fatalf("got %d of %d events", len(got), n)
			}
		}
		return got
	}
	for i, ev := range recv(all, len(want)) {
		if ev != want[i] {
			t.Errorf("event %d: got %+v, want %+v", i, ev, want[i])
		}
	}
	var mine []scheduler.JobEvent
	for _, ev := range want {
		if ev.JobID == b {
			mine = append(mine, ev)
		}
	}
	for i, ev := range recv(one, len(mine)) {
		if ev != mine[i] {
			t.Errorf("job %d event %d: got %+v, want %+v", b, i, ev, mine[i])
		}
	}
}
