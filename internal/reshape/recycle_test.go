package reshape_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/reshape"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// severingProxy forwards connections to a daemon and can cut every live
// one at once, which a client sees as its connection dying mid-call.
type severingProxy struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	conns  []net.Conn
}

func startProxy(t *testing.T, target string) *severingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &severingProxy{ln: ln, target: target}
	t.Cleanup(func() {
		ln.Close()
		p.sever()
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, s)
			p.mu.Unlock()
			go func() { _, _ = io.Copy(s, c); s.Close() }()
			go func() { _, _ = io.Copy(c, s); c.Close() }()
		}
	}()
	return p
}

func (p *severingProxy) sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// transport reports whether err came from the transport rather than a
// server reply: abandoned calls (deadline) and calls caught by the cut fail
// this way, and only server replies can be checked for ownership.
func transport(err error) bool {
	var se *reshape.ServerError
	return !errors.As(err, &se)
}

// TestRecycledPathsUnderRace drives the recycled request machinery from
// 64 goroutines sharing one connection: Submit, Contact and Status in
// rotation, a third of the goroutines on deadlines short enough to expire
// mid-flight (so their calls are abandoned and cancelled remotely), and the
// connection cut once mid-run. Every call that succeeds must have received
// its own reply: a submit returns an id no other call got and that names
// the caller's job, a contact's error names the job that caller asked
// about, a status carries a status. Run under -race -count=10 in CI.
func TestRecycledPathsUnderRace(t *testing.T) {
	const (
		workers = 64
		rounds  = 30
		procs   = 4096
	)
	sched := scheduler.NewServer(procs, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := startProxy(t, srv.Addr())
	cl, err := reshape.Dial(proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var (
		mu      sync.Mutex
		owner   = map[int]string{} // job id -> name of the submit that got it
		calls   atomic.Int64
		severed atomic.Bool
	)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("worker %d: "+format, append([]any{w}, args...)...)
			}
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if w%3 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(20+(w*7+i*13)%200)*time.Microsecond)
				}
				if calls.Add(1) == workers*rounds/2 && severed.CompareAndSwap(false, true) {
					proxy.sever()
				}
				switch i % 3 {
				case 0:
					name := fmt.Sprintf("w%d-r%d", w, i)
					id, err := cl.Submit(ctx, scheduler.JobSpec{
						Name: name, App: "mw", Iterations: 1,
						InitialTopo: grid.Row1D(1), Chain: []grid.Topology{grid.Row1D(1)},
					})
					if err != nil {
						if !transport(err) {
							fail("submit: %v", err)
						}
						break
					}
					mu.Lock()
					if prev, dup := owner[id]; dup {
						fail("submit %s got job %d, already returned to %s", name, id, prev)
					}
					owner[id] = name
					mu.Unlock()
				case 1:
					job := 1_000_000 + w*1000 + i // never submitted
					_, err := cl.Contact(ctx, job, grid.Row1D(1), 0.01, 0)
					if err == nil {
						fail("contact for unknown job %d succeeded", job)
					} else if !transport(err) && !strings.Contains(err.Error(), fmt.Sprintf("unknown job %d", job)) {
						fail("contact for job %d got another call's reply: %v", job, err)
					}
				case 2:
					st, err := cl.Status(ctx)
					if err != nil {
						if !transport(err) {
							fail("status: %v", err)
						}
					} else if st.Total != procs {
						fail("status reply %+v is not a status", st)
					}
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st, err := sched.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[int]string, len(st.Jobs))
	for _, j := range st.Jobs {
		names[j.ID] = j.Name
	}
	for id, name := range owner {
		if names[id] != name {
			t.Errorf("submit %s was answered with job %d, which is %q", name, id, names[id])
		}
	}
	if cl.Dials() < 2 {
		t.Errorf("dials = %d: the cut never reached the client", cl.Dials())
	}
	if m := srv.Stats().Malformed; m != 0 {
		t.Errorf("%d malformed requests", m)
	}
}

// TestCancelOfUnaryOpAndDuplicateID pins the two server-side rules the
// recycled dispatch path must keep: an OpCancel naming an in-flight unary
// op is acknowledged and changes nothing (the op still answers normally),
// and an ID already in flight is refused with CodeBadRequest.
func TestCancelOfUnaryOpAndDuplicateID(t *testing.T) {
	sched := scheduler.NewServer(8, true, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	job, err := sched.Submit(ctx, scheduler.JobSpec{
		Name: "j", App: "mw", Iterations: 100,
		InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{rpc.MagicV2}); err != nil {
		t.Fatal(err)
	}
	fw, fr := rpc.NewFrameWriter(nc), rpc.NewFrameReader(bufio.NewReader(nc))
	read := func(n int) map[uint64]rpc.Reply {
		got := map[uint64]rpc.Reply{}
		for i := 0; i < n; i++ {
			var r rpc.Reply
			if err := fr.Read(&r); err != nil {
				t.Fatal(err)
			}
			got[r.ID] = r
		}
		return got
	}

	for i := uint64(0); i < 50; i++ {
		contact, cancel := 100+2*i, 101+2*i
		if err := fw.Write(rpc.Frame{ID: contact, Op: rpc.OpContact, JobID: job, Topo: grid.Row1D(2), IterTime: 1}); err != nil {
			t.Fatal(err)
		}
		if err := fw.Write(rpc.Frame{ID: cancel, Op: rpc.OpCancel, CancelID: contact}); err != nil {
			t.Fatal(err)
		}
		got := read(2)
		if r := got[cancel]; !r.Final || r.Err != "" {
			t.Fatalf("cancel ack %+v", r)
		}
		if r := got[contact]; !r.Final || r.Err != "" {
			t.Fatalf("contact under a cancel: %+v", r)
		}
	}

	// Park a wait under ID 7, then reuse 7 for a unary op while it waits.
	if err := fw.Write(rpc.Frame{ID: 7, Op: rpc.OpWait, JobID: job}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := fw.Write(rpc.Frame{ID: 7, Op: rpc.OpContact, JobID: job, Topo: grid.Row1D(2), IterTime: 1}); err != nil {
		t.Fatal(err)
	}
	if r := read(1)[7]; r.Code != rpc.CodeBadRequest {
		t.Fatalf("duplicate in-flight id: %+v", r)
	}
	if err := sched.JobEnd(ctx, job); err != nil {
		t.Fatal(err)
	}
	if r := read(1)[7]; !r.Final || r.Err != "" {
		t.Fatalf("the parked wait after the duplicate: %+v", r)
	}
}
