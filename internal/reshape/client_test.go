package reshape_test

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/reshape"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

func startDaemon(t *testing.T, procs int) (*scheduler.Server, *rpc.Server) {
	t.Helper()
	sched := scheduler.NewServer(procs, true, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return sched, srv
}

func TestTypedCallsOverV2(t *testing.T) {
	ctx := context.Background()
	_, srv := startDaemon(t, 8)
	cl, err := reshape.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	id, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: "lu", App: "lu", ProblemSize: 12000, Iterations: 10,
		InitialTopo: grid.Topology{Rows: 1, Cols: 2},
		Chain:       grid.GrowthChain(grid.Topology{Rows: 1, Cols: 2}, 12000, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cl.Contact(ctx, id, grid.Topology{Rows: 1, Cols: 2}, 129.63, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != scheduler.ActionExpand {
		t.Fatalf("decision %+v", d)
	}
	if err := cl.ResizeComplete(ctx, id, 8.0); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 8 || len(st.Jobs) != 1 || st.Jobs[0].State != "running" {
		t.Fatalf("status %+v", st)
	}
	if err := cl.JobEnd(ctx, id); err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(ctx, id); err != nil {
		t.Fatal(err)
	}
	// App-level errors come back typed through the multiplexed path.
	if _, err := cl.Contact(ctx, 999, grid.Row1D(1), 1, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("err %v", err)
	}
	if cl.Dials() != 1 {
		t.Fatalf("dials = %d, want 1 multiplexed connection", cl.Dials())
	}
}

// TestConcurrentClientsHammerDaemon drives one daemon from many clients,
// each running several goroutines that interleave submit, contact,
// resize-complete and job-end — the ISSUE's N-clients race test. Run under
// -race in CI.
func TestConcurrentClientsHammerDaemon(t *testing.T) {
	const (
		clients    = 4
		perClient  = 4
		iterations = 6
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sched, srv := startDaemon(t, 64)

	var wg sync.WaitGroup
	errCh := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		cl, err := reshape.Dial(srv.Addr(), reshape.WithPoolSize(2))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for g := 0; g < perClient; g++ {
			wg.Add(1)
			go func(cl *reshape.Client, tag string) {
				defer wg.Done()
				if err := hammer(ctx, cl, tag, iterations); err != nil {
					errCh <- err
				}
			}(cl, fmt.Sprintf("c%d-g%d", c, g))
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st, err := sched.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Free != st.Total || st.QueueLen != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
	for _, j := range st.Jobs {
		if j.State != "done" {
			t.Errorf("job %s state %s", j.Name, j.State)
		}
	}
}

// hammer runs one job through its lifecycle over the wire: submit, wait
// for it to leave the queue, a few resize contacts (actuating any grants),
// then job-end.
func hammer(ctx context.Context, cl *reshape.Client, tag string, iterations int) error {
	start := grid.Row1D(2)
	id, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: tag, App: "mw", Iterations: iterations,
		InitialTopo: start, Chain: []grid.Topology{grid.Row1D(2), grid.Row1D(4)},
	})
	if err != nil {
		return fmt.Errorf("%s submit: %w", tag, err)
	}
	cur := start
	for i := 0; i < iterations; {
		d, err := cl.Contact(ctx, id, cur, 0.01, 0)
		if err != nil {
			if strings.Contains(err.Error(), "while queued") {
				// Not started yet: a competing job holds the pool.
				select {
				case <-ctx.Done():
					return fmt.Errorf("%s: starved in queue", tag)
				case <-time.After(time.Millisecond):
				}
				continue
			}
			return fmt.Errorf("%s contact: %w", tag, err)
		}
		i++
		if d.Action == scheduler.ActionExpand || d.Action == scheduler.ActionShrink {
			cur = d.Target
			if err := cl.ResizeComplete(ctx, id, 0.001); err != nil {
				return fmt.Errorf("%s resize-complete: %w", tag, err)
			}
		}
	}
	if err := cl.JobEnd(ctx, id); err != nil {
		return fmt.Errorf("%s job-end: %w", tag, err)
	}
	return cl.Wait(ctx, id)
}

// TestReconnectAndResubscribeAfterRestart kills the daemon under a live
// client and brings a fresh one up on the same address: unary calls must
// recover via redial, and the Watch subscription must resubscribe and keep
// delivering events without a new Watch call.
func TestReconnectAndResubscribeAfterRestart(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sched1 := scheduler.NewServer(8, true, nil)
	srv1, err := rpc.Serve("127.0.0.1:0", sched1)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()

	cl, err := reshape.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sub, err := cl.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	waitWatchRegistered(t, srv1)

	id1, err := cl.Submit(ctx, scheduler.JobSpec{
		Name: "before", App: "mw", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	expectEvent(t, sub, "start", "before")
	_ = id1

	// Daemon restart: state is lost, address survives.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	sched2 := scheduler.NewServer(8, true, nil)
	var srv2 *rpc.Server
	for i := 0; ; i++ {
		srv2, err = rpc.Serve(addr, sched2)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer srv2.Close()

	// The watch loop must find the new daemon and resubscribe on its own.
	waitWatchRegistered(t, srv2)

	// Unary traffic recovers through redial on the same client…
	id2 := submitWithRetry(t, ctx, cl, scheduler.JobSpec{
		Name: "after", App: "mw", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	// …and the original subscription streams the new daemon's events.
	expectEvent(t, sub, "start", "after")
	if err := cl.JobEnd(ctx, id2); err != nil {
		t.Fatal(err)
	}
	expectEvent(t, sub, "end", "after")

	// One pooled connection and the watch's own, each dialled again.
	if cl.Dials() < 4 {
		t.Fatalf("dials = %d, want the pool and the watch each to reconnect", cl.Dials())
	}
	sub.Cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.C:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("stream not closed after cancel")
		}
	}
}

// TestWatchLagIsLosslessOverTheWire: a Client.Watch consumer that stalls
// while 2 001 events are published, more than any buffer on the way holds,
// and then drains sees every Seq exactly once and in order. The watch's
// connection is read only as fast as the consumer drains, so TCP carries
// the backpressure back to the server's cursor instead of anything being
// dropped.
func TestWatchLagIsLosslessOverTheWire(t *testing.T) {
	sched, srv := startDaemon(t, 4)
	cl, err := reshape.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub, err := cl.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	waitWatchRegistered(t, srv)

	// 2 000 jobs on a 4-processor pool: the first starts, the rest queue.
	const jobs = 2000
	start := grid.Topology{Rows: 2, Cols: 2}
	for i := 0; i < jobs; i++ {
		if _, err := sched.Submit(ctx, scheduler.JobSpec{
			Name: fmt.Sprintf("lag%d", i), App: "lu", ProblemSize: 8000, Iterations: 10,
			InitialTopo: start, Chain: []grid.Topology{start},
		}); err != nil {
			t.Fatal(err)
		}
	}
	const want = jobs + 1
	for seq := uint64(1); seq <= want; seq++ {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				t.Fatalf("stream closed after %d of %d events", seq-1, want)
			}
			if ev.Seq != seq {
				t.Fatalf("got seq %d, want %d: the stream lost or reordered events while its consumer stalled", ev.Seq, seq)
			}
		case <-ctx.Done():
			t.Fatalf("got %d of %d events", seq-1, want)
		}
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("dropped %d events", d)
	}
}

// TestCloseEndsWatch: Client.Close severs each open Watch's own connection
// too, so the subscription's C closes without a Cancel.
func TestCloseEndsWatch(t *testing.T) {
	_, srv := startDaemon(t, 4)
	cl, err := reshape.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cl.Watch(context.Background(), scheduler.AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	waitWatchRegistered(t, srv)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-sub.C:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("Close left an open Watch's stream open")
		}
	}
}

func waitWatchRegistered(t *testing.T, srv *rpc.Server) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for srv.Stats().Watches == 0 {
		select {
		case <-deadline:
			t.Fatal("watch never registered on server")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func expectEvent(t *testing.T, sub *scheduler.Subscription, kind, job string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				t.Fatalf("stream closed while waiting for %s/%s", kind, job)
			}
			if ev.Kind == kind && ev.Job == job {
				return
			}
		case <-deadline:
			t.Fatalf("no %s event for %s", kind, job)
		}
	}
}

func submitWithRetry(t *testing.T, ctx context.Context, cl *reshape.Client, spec scheduler.JobSpec) int {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		id, err := cl.Submit(ctx, spec)
		if err == nil {
			return id
		}
		select {
		case <-deadline:
			t.Fatalf("submit never recovered: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func TestCallContextCancellation(t *testing.T) {
	_, srv := startDaemon(t, 4)
	cl, err := reshape.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

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
	err = cl.Wait(ctx, id)
	if err == nil {
		t.Fatal("Wait should fail on deadline")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("Wait ignored deadline")
	}
	// The connection must remain usable after the cancelled call.
	if _, err := cl.Status(context.Background()); err != nil {
		t.Fatalf("status after cancelled wait: %v", err)
	}
	if cl.Dials() != 1 {
		t.Fatalf("dials = %d; cancellation must not burn the connection", cl.Dials())
	}
}

// hangUpDaemon is a fake daemon for transport failures. Its first
// connection reads the magic byte and one frame, then hangs up without a
// reply; every later connection answers each frame it reads, a status
// with Total 7 for OpStatus. It records the op of every frame it reads.
type hangUpDaemon struct {
	ln  net.Listener
	mu  sync.Mutex
	ops []rpc.Op
}

func startHangUpDaemon(t *testing.T) *hangUpDaemon {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	d := &hangUpDaemon{ln: ln}
	go func() {
		for first := true; ; first = false {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go d.serve(nc, first)
		}
	}()
	return d
}

func (d *hangUpDaemon) serve(nc net.Conn, hangUp bool) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	if b, err := br.ReadByte(); err != nil || b != rpc.MagicV2 {
		return
	}
	fr, fw := rpc.NewFrameReader(br), rpc.NewFrameWriter(nc)
	for {
		var f rpc.Frame
		if err := fr.Read(&f); err != nil {
			return
		}
		d.mu.Lock()
		d.ops = append(d.ops, f.Op)
		d.mu.Unlock()
		if hangUp {
			return
		}
		r := rpc.Reply{ID: f.ID, Final: true}
		if f.Op == rpc.OpStatus {
			r.Status = &scheduler.ClusterStatus{Total: 7}
		}
		if err := fw.Write(&r); err != nil {
			return
		}
	}
}

func (d *hangUpDaemon) seen() []rpc.Op {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]rpc.Op(nil), d.ops...)
}

// TestIdempotentCallRetriesWhenConnectionDies: a connection that dies
// after the frame went out but before its reply is retried once on a
// fresh connection for an idempotent op, and surfaced for a mutating one,
// which the daemon saw exactly once.
func TestIdempotentCallRetriesWhenConnectionDies(t *testing.T) {
	ctx := context.Background()
	t.Run("status", func(t *testing.T) {
		d := startHangUpDaemon(t)
		cl, err := reshape.Dial(d.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		st, err := cl.Status(ctx)
		if err != nil {
			t.Fatalf("status across a dead connection: %v", err)
		}
		if st.Total != 7 || cl.Dials() != 2 {
			t.Fatalf("status total %d after %d dials, want 7 after 2", st.Total, cl.Dials())
		}
		if ops := d.seen(); len(ops) != 2 || ops[0] != rpc.OpStatus || ops[1] != rpc.OpStatus {
			t.Fatalf("daemon saw %v, want two status frames", ops)
		}
	})
	t.Run("submit", func(t *testing.T) {
		d := startHangUpDaemon(t)
		cl, err := reshape.Dial(d.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		_, err = cl.Submit(ctx, scheduler.JobSpec{
			Name: "once", App: "mw", Iterations: 1,
			InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
		})
		if err == nil {
			t.Fatal("submit across a dead connection succeeded")
		}
		if ops := d.seen(); len(ops) != 1 || ops[0] != rpc.OpSubmit {
			t.Fatalf("daemon saw %v, want exactly one submit frame", ops)
		}
	})
}
