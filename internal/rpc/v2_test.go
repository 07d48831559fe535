package rpc

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// dialV2 opens a raw v2 connection (magic byte already sent) with its
// frame codecs.
func dialV2(t *testing.T, addr string) (net.Conn, *FrameWriter, *FrameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{MagicV2}); err != nil {
		t.Fatal(err)
	}
	return conn, NewFrameWriter(conn), NewFrameReader(bufio.NewReader(conn))
}

func TestV2PipelinesConcurrentRequestsOnOneConnection(t *testing.T) {
	sched := scheduler.NewServer(8, true, nil)
	srv, err := Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, fw, fr := dialV2(t, srv.Addr())
	defer conn.Close()

	// Pipeline a burst of status requests without reading any reply.
	const n = 32
	for i := 1; i <= n; i++ {
		if err := fw.Write(Frame{ID: uint64(i), Op: OpStatus}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		var r Reply
		if err := fr.Read(&r); err != nil {
			t.Fatal(err)
		}
		if r.Err != "" {
			t.Fatalf("reply %d: %s", r.ID, r.Err)
		}
		if !r.Final || r.Status == nil || r.Status.Total != 8 {
			t.Fatalf("bad reply %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate reply id %d", r.ID)
		}
		seen[r.ID] = true
	}
	if st := srv.Stats(); st.Conns != 1 || st.Requests != n {
		t.Fatalf("stats %+v", st)
	}
}

func TestV2WaitDoesNotPinConnection(t *testing.T) {
	// A pending Wait and a burst of other ops share one connection: a
	// wait parks one request, never the socket.
	sched := scheduler.NewServer(4, false, nil)
	srv, err := Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	id, err := sched.Submit(context.Background(), scheduler.JobSpec{
		Name: "j", App: "mw", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}

	conn, fw, fr := dialV2(t, srv.Addr())
	defer conn.Close()

	if err := fw.Write(Frame{ID: 1, Op: OpWait, JobID: id}); err != nil {
		t.Fatal(err)
	}
	// The wait is pending; a status request on the same conn must still be
	// answered.
	if err := fw.Write(Frame{ID: 2, Op: OpStatus}); err != nil {
		t.Fatal(err)
	}
	var r Reply
	if err := fr.Read(&r); err != nil {
		t.Fatal(err)
	}
	if r.ID != 2 || r.Status == nil {
		t.Fatalf("expected status reply while wait pending, got %+v", r)
	}
	if err := sched.JobEnd(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if err := fr.Read(&r); err != nil {
		t.Fatal(err)
	}
	if r.ID != 1 || !r.Final || r.Err != "" {
		t.Fatalf("wait reply %+v", r)
	}
}

func TestV2CancelAbortsPendingWait(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id, err := sched.Submit(context.Background(), scheduler.JobSpec{
		Name: "j", App: "mw", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}

	conn, fw, fr := dialV2(t, srv.Addr())
	defer conn.Close()
	if err := fw.Write(Frame{ID: 7, Op: OpWait, JobID: id}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := fw.Write(Frame{ID: 8, Op: OpCancel, CancelID: 7}); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]Reply{}
	for i := 0; i < 2; i++ {
		var r Reply
		if err := fr.Read(&r); err != nil {
			t.Fatal(err)
		}
		got[r.ID] = r
	}
	if r := got[7]; r.Code != CodeCancelled {
		t.Fatalf("wait reply after cancel: %+v", r)
	}
	if r := got[8]; !r.Final || r.Err != "" {
		t.Fatalf("cancel ack: %+v", r)
	}
}

func TestMalformedV2FrameGetsErrorFrame(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, _, fr := dialV2(t, srv.Addr())
	defer conn.Close()
	// Garbage that can never decode as a gob Frame message.
	if _, err := conn.Write([]byte{0x04, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	var r Reply
	if err := fr.Read(&r); err != nil {
		t.Fatalf("expected error frame, got %v", err)
	}
	if r.Code != CodeBadRequest || !r.Final {
		t.Fatalf("reply %+v", r)
	}
	if st := srv.Stats(); st.Malformed == 0 {
		t.Fatalf("malformed frames not counted: %+v", st)
	}
}

func TestV2UnknownOpAndZeroIDKeepConnectionUsable(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, fw, fr := dialV2(t, srv.Addr())
	defer conn.Close()

	if err := fw.Write(Frame{ID: 0, Op: OpStatus}); err != nil {
		t.Fatal(err)
	}
	var r Reply
	if err := fr.Read(&r); err != nil {
		t.Fatal(err)
	}
	if r.Code != CodeBadRequest {
		t.Fatalf("zero-id reply %+v", r)
	}

	if err := fw.Write(Frame{ID: 3, Op: Op("nonsense")}); err != nil {
		t.Fatal(err)
	}
	if err := fr.Read(&r); err != nil {
		t.Fatal(err)
	}
	if r.ID != 3 || r.Code != CodeUnknownOp {
		t.Fatalf("unknown-op reply %+v", r)
	}

	// The connection survived both rejects.
	if err := fw.Write(Frame{ID: 4, Op: OpStatus}); err != nil {
		t.Fatal(err)
	}
	if err := fr.Read(&r); err != nil {
		t.Fatal(err)
	}
	if r.ID != 4 || r.Status == nil {
		t.Fatalf("status after rejects %+v", r)
	}
}

func TestV2RejectsDuplicateInFlightID(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id, err := sched.Submit(context.Background(), scheduler.JobSpec{
		Name: "j", App: "mw", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}

	conn, fw, fr := dialV2(t, srv.Addr())
	defer conn.Close()
	// Park a wait under ID 5, then reuse 5 while it is still in flight.
	if err := fw.Write(Frame{ID: 5, Op: OpWait, JobID: id}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := fw.Write(Frame{ID: 5, Op: OpStatus}); err != nil {
		t.Fatal(err)
	}
	var r Reply
	if err := fr.Read(&r); err != nil {
		t.Fatal(err)
	}
	if r.ID != 5 || r.Code != CodeBadRequest || r.Status != nil {
		t.Fatalf("duplicate-id reply %+v", r)
	}
	// The original wait must still be live and cancellable under its ID.
	if err := fw.Write(Frame{ID: 6, Op: OpCancel, CancelID: 5}); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]Reply{}
	for i := 0; i < 2; i++ {
		if err := fr.Read(&r); err != nil {
			t.Fatal(err)
		}
		got[r.ID] = r
	}
	if r := got[5]; r.Code != CodeCancelled {
		t.Fatalf("original wait not cancelled: %+v", r)
	}
}

func TestAcceptLoopBacksOffAfterListenerClose(t *testing.T) {
	// Kill the listener out from under the accept loop (without marking the
	// server done): the loop must record the error and back off instead of
	// hot-spinning, and Err() must surface it.
	sched := scheduler.NewServer(4, false, nil)
	srv, err := Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	_ = srv.ln.Close()
	deadline := time.After(2 * time.Second)
	for srv.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("accept error never surfaced via Err()")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	time.Sleep(50 * time.Millisecond)
	st := srv.Stats()
	if st.AcceptErrors == 0 {
		t.Fatal("accept errors not counted")
	}
	// With a min backoff of 1ms doubling to 1s, 50ms of failures can
	// produce at most ~7 attempts; hot-spinning would produce thousands.
	if st.AcceptErrors > 20 {
		t.Fatalf("accept loop hot-spinning: %d errors in 50ms", st.AcceptErrors)
	}
}

// TestV2DispatchedRequestLifecycle drives the requests that run off the
// scheduler's pipeline, each on a goroutine of its own: 1 000 concurrent
// Status, Wait and Watch requests on one connection, every Wait and Watch
// then cancelled by OpCancel. Every request gets exactly one final reply;
// an ID is refused while its request is in flight and accepted again once
// its final reply has been read; and after Close no goroutine is left.
func TestV2DispatchedRequestLifecycle(t *testing.T) {
	const n = 1000
	sched := scheduler.NewServer(4, false, nil)
	job, err := sched.Submit(context.Background(), scheduler.JobSpec{
		Name: "j", App: "mw", Iterations: 1,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	srv, err := Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	conn, fw, fr := dialV2(t, srv.Addr())
	replies := make(chan Reply, 4*n)
	go func() {
		defer close(replies)
		for {
			var r Reply
			if err := fr.Read(&r); err != nil {
				return
			}
			replies <- r
		}
	}()
	send := func(f Frame) {
		t.Helper()
		if err := fw.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	// finals[id] lists the final replies id got, refused[id] counts the
	// refusals of a reused id.
	finals := map[uint64][]Reply{}
	refused := map[uint64]int{}
	got := 0
	// await files replies until want finals and refusals have come in.
	await := func(want int) {
		t.Helper()
		for got < want {
			var r Reply
			select {
			case r = <-replies:
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d replies after a 10s silence", got, want)
			}
			switch {
			case !r.Final && r.Event != nil:
				continue // a watch event
			case !r.Final:
				t.Fatalf("non-final reply %+v", r)
			case r.Code == CodeBadRequest:
				refused[r.ID]++
			default:
				finals[r.ID] = append(finals[r.ID], r)
			}
			got++
		}
	}
	op := func(id uint64) Op { return [...]Op{OpStatus, OpWait, OpWatch}[id%3] }
	statuses, waits := 0, 0
	for id := uint64(1); id <= n; id++ {
		send(Frame{ID: id, Op: op(id), JobID: job})
		switch op(id) {
		case OpStatus:
			statuses++
		case OpWait:
			// The read loop registers the Wait before it reads on, so
			// its ID is in flight.
			send(Frame{ID: id, Op: OpStatus})
			waits++
		}
	}
	blocking := n - statuses
	await(statuses + waits)
	for id := uint64(1); id <= n; id++ {
		if op(id) != OpStatus {
			send(Frame{ID: n + id, Op: OpCancel, CancelID: id})
		}
	}
	await(statuses + waits + 2*blocking)
	for id := uint64(1); id <= n; id++ {
		f, c := finals[id], finals[n+id]
		switch {
		case len(f) != 1:
			t.Fatalf("%s %d: %d final replies %+v", op(id), id, len(f), f)
		case op(id) == OpStatus && (f[0].Status == nil || f[0].Err != ""):
			t.Fatalf("status %d: %+v", id, f[0])
		case op(id) == OpWait && (f[0].Code != CodeCancelled || refused[id] != 1):
			t.Fatalf("wait %d: %+v, reuse refused %d times", id, f[0], refused[id])
		case op(id) == OpWatch && (f[0].Err != "" || refused[id] != 0):
			t.Fatalf("watch %d: %+v, refused %d times", id, f[0], refused[id])
		case op(id) != OpStatus && (len(c) != 1 || c[0].Err != ""):
			t.Fatalf("cancel of %d: %+v", id, c)
		}
	}
	// Every ID whose final reply has been read is free again.
	for id := uint64(1); id <= n; id++ {
		if op(id) != OpStatus {
			send(Frame{ID: id, Op: OpStatus})
		}
	}
	await(statuses + waits + 3*blocking)
	for id := uint64(1); id <= n; id++ {
		if f := finals[id]; op(id) != OpStatus && (len(f) != 2 || f[1].Status == nil) {
			t.Fatalf("%d reused after its final reply: %+v", id, f)
		}
	}
	if len(refused) != waits {
		t.Fatalf("%d ids refused, want the %d reused while in flight", len(refused), waits)
	}

	conn.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Serve", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRefusedWatchIsNotCounted: Stats.Watches counts subscriptions opened,
// so a watch the scheduler refuses (its core keeps no allocation trace) is
// answered with an error and leaves the count at zero; one that opens is
// counted.
func TestRefusedWatchIsNotCounted(t *testing.T) {
	core := scheduler.NewCore(4, false)
	core.DisableTrace()
	srv, err := Serve("127.0.0.1:0", scheduler.NewServerCore(core, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, fw, fr := dialV2(t, srv.Addr())
	defer conn.Close()
	if err := fw.Write(Frame{ID: 1, Op: OpWatch, JobID: scheduler.AllJobs}); err != nil {
		t.Fatal(err)
	}
	var r Reply
	if err := fr.Read(&r); err != nil {
		t.Fatal(err)
	}
	if !r.Final || r.Code != CodeApp {
		t.Fatalf("watch on a core without a trace answered %+v, want a final %s error", r, CodeApp)
	}
	if n := srv.Stats().Watches; n != 0 {
		t.Fatalf("a refused watch counted: Watches = %d", n)
	}

	traced, err := Serve("127.0.0.1:0", scheduler.NewServer(4, false, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	conn2, fw2, _ := dialV2(t, traced.Addr())
	defer conn2.Close()
	if err := fw2.Write(Frame{ID: 1, Op: OpWatch, JobID: scheduler.AllJobs}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); traced.Stats().Watches != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("an opened watch not counted: Watches = %d", traced.Stats().Watches)
		}
		time.Sleep(time.Millisecond)
	}
}
