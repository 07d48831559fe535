package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// recordingWriter keeps a copy of every Write it gets, takes a little
// while over each one, and fails the failAt'th call (1-based; 0 never).
type recordingWriter struct {
	delay  time.Duration
	failAt int
	err    error

	active  atomic.Int32
	overlap atomic.Bool

	mu    sync.Mutex
	calls [][]byte
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	if w.active.Add(1) != 1 {
		w.overlap.Store(true)
	}
	defer w.active.Add(-1)
	w.mu.Lock()
	w.calls = append(w.calls, bytes.Clone(p))
	n := len(w.calls)
	w.mu.Unlock()
	if n == w.failAt {
		return 0, w.err
	}
	time.Sleep(w.delay)
	return len(p), nil
}

// TestFrameWriterConcurrent drives one FrameWriter from 32 goroutines at
// once, each writing 2 000 frames and replies of every kind, onto a slow
// writer. The bytes it receives must decode to every frame exactly once,
// each goroutine's in the order it wrote them, each frame byte for byte
// what a writer of its own would have produced, and in fewer writes than
// frames.
func TestFrameWriterConcurrent(t *testing.T) {
	const goroutines, perG = 32, 2000
	values := make([][]any, goroutines)
	solo := make([][][]byte, goroutines)
	for g := range values {
		gn := gen{rand.New(rand.NewSource(int64(g)))}
		for i := 0; i < perG; i++ {
			id := uint64(g*perG + i + 1)
			var v any
			switch i % 4 {
			case 0:
				f := gn.frame(allOps[i%len(allOps)])
				f.ID = id
				v = f
			case 1:
				f := gn.frame(allOps[i%len(allOps)])
				f.ID = id
				v = &f
			case 2:
				r := gn.reply(i % 5)
				r.ID = id
				v = r
			default:
				r := gn.reply(i % 5)
				r.ID = id
				v = &r
			}
			var buf bytes.Buffer
			if err := NewFrameWriter(&buf).Write(v); err != nil {
				t.Fatal(err)
			}
			values[g] = append(values[g], v)
			solo[g] = append(solo[g], buf.Bytes())
		}
	}

	rw := &recordingWriter{delay: time.Microsecond}
	fw := NewFrameWriter(rw)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := range values {
		wg.Add(1)
		go func(vs []any) {
			defer wg.Done()
			for _, v := range vs {
				if err := fw.Write(v); err != nil {
					errs <- err
					return
				}
			}
		}(values[g])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if rw.overlap.Load() {
		t.Fatal("the underlying writer was called concurrently")
	}

	stream := bytes.Join(rw.calls, nil)
	next := make([]int, goroutines)
	frames := 0
	for len(stream) > 0 {
		n, k := binary.Uvarint(stream)
		if k <= 0 || uint64(len(stream)-k) < n {
			t.Fatalf("frame %d: bad length prefix", frames)
		}
		raw := stream[:k+int(n)]
		stream = stream[len(raw):]
		id, _ := binary.Uvarint(raw[k:])
		g, i := int(id-1)/perG, int(id-1)%perG
		if id == 0 || g >= goroutines {
			t.Fatalf("frame %d: id %d belongs to no writer", frames, id)
		}
		if i != next[g] {
			t.Fatalf("goroutine %d: frame %d arrived where %d was due", g, i, next[g])
		}
		next[g]++
		frames++
		if !bytes.Equal(raw, solo[g][i]) {
			t.Fatalf("goroutine %d frame %d: % x, written alone % x", g, i, raw, solo[g][i])
		}
		v := values[g][i]
		typ := reflect.TypeOf(v)
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		got := reflect.New(typ)
		if err := NewFrameReader(bytes.NewReader(raw)).Read(got.Interface()); err != nil {
			t.Fatalf("goroutine %d frame %d: %v", g, i, err)
		}
		want := reflect.Indirect(reflect.ValueOf(v)).Interface()
		if !wireEqual(got.Elem().Interface(), want) {
			t.Fatalf("goroutine %d frame %d decodes to %+v, want %+v", g, i, got.Elem().Interface(), want)
		}
	}
	if frames != goroutines*perG {
		t.Fatalf("%d frames decoded, want %d", frames, goroutines*perG)
	}
	if len(rw.calls) >= frames {
		t.Fatalf("%d writes for %d frames: nothing was batched", len(rw.calls), frames)
	}
	t.Logf("%d frames in %d writes (%.1f per write)", frames, len(rw.calls), float64(frames)/float64(len(rw.calls)))
}

// TestFrameWriterLatchesError fails the writer's third write: that Write
// and every later Write, Queue and Flush return the error, and the
// underlying writer is never called again.
func TestFrameWriterLatchesError(t *testing.T) {
	boom := errors.New("boom")
	rw := &recordingWriter{failAt: 3, err: boom}
	fw := NewFrameWriter(rw)
	f := Frame{ID: 1, Op: OpStatus}
	for i := 1; i <= 2; i++ {
		if err := fw.Write(&f); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := fw.Write(&f); !errors.Is(err, boom) {
		t.Fatalf("write 3: %v, want %v", err, boom)
	}
	for i := 0; i < 5; i++ {
		if err := fw.Write(&f); !errors.Is(err, boom) {
			t.Fatalf("write after the failure: %v, want %v", err, boom)
		}
	}
	if err := fw.Queue(&f); !errors.Is(err, boom) {
		t.Fatalf("queue after the failure: %v, want %v", err, boom)
	}
	if err := fw.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush after the failure: %v, want %v", err, boom)
	}
	if len(rw.calls) != 3 {
		t.Fatalf("underlying writer called %d times, want 3", len(rw.calls))
	}
}

// gateWriter announces each Write on entered and completes it only when
// the test sends on gate.
type gateWriter struct {
	entered chan struct{}
	gate    chan struct{}
	calls   atomic.Int32
}

func (w *gateWriter) Write(p []byte) (int, error) {
	w.entered <- struct{}{}
	<-w.gate
	w.calls.Add(1)
	return len(p), nil
}

// TestFrameWriterFollowerWaitsForItsBatch: a follower whose frame is
// queued behind a write in flight returns only once the batch carrying its
// frame has been written, not when the batch in flight completes.
func TestFrameWriterFollowerWaitsForItsBatch(t *testing.T) {
	w := &gateWriter{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	fw := NewFrameWriter(w)
	f := Frame{ID: 1, Op: OpStatus}
	leader := make(chan error, 1)
	go func() { leader <- fw.Write(&f) }()
	<-w.entered // the leader has taken its batch and is writing it

	follower := make(chan error, 1)
	go func() { follower <- fw.Write(&f) }()
	returnedEarly := func(when string) {
		time.Sleep(20 * time.Millisecond)
		select {
		case err := <-follower:
			t.Fatalf("follower returned %v %s", err, when)
		default:
		}
	}
	returnedEarly("while the leader's write was blocked")
	w.gate <- struct{}{} // the first batch is written
	<-w.entered          // the leader is writing the follower's batch
	returnedEarly("before its own batch was written")
	w.gate <- struct{}{}
	for _, ch := range []chan error{leader, follower} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if n := w.calls.Load(); n != 2 {
		t.Fatalf("%d writes, want 2", n)
	}
}

// wedgedPeer serves one connection of srv over net.Pipe, which has no
// buffer: the server's first reply blocks until the peer reads, and the
// peer end behind the returned writer never reads. srv.Close severs it.
func wedgedPeer(t *testing.T, srv *Server) *FrameWriter {
	t.Helper()
	peer, conn := net.Pipe()
	t.Cleanup(func() { peer.Close() })
	if !srv.track(conn, true) {
		t.Fatal("server already closed")
	}
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		defer srv.track(conn, false)
		defer conn.Close()
		srv.serveConn(conn)
	}()
	if _, err := peer.Write([]byte{MagicV2}); err != nil {
		t.Fatal(err)
	}
	return NewFrameWriter(peer)
}

// TestWedgedConnectionBlocksItsWatches subscribes twice on one connection
// whose peer then reads nothing. The first job's two events wedge both
// watch pumps: one leads a write that never completes, the other waits for
// it. Then far more events are published than a subscription's channel
// buffers. A pump that returned from its flush would queue them all in
// server memory; blocked ones leave them in their channels, and the
// subscriptions' cursors wait behind them.
func TestWedgedConnectionBlocksItsWatches(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fw := wedgedPeer(t, srv)
	for id := uint64(1); id <= 2; id++ {
		if err := fw.Write(Frame{ID: id, Op: OpWatch, JobID: scheduler.AllJobs}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); sched.Subscribers() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("watch subscriptions never registered")
		}
		time.Sleep(time.Millisecond)
	}

	ctx := context.Background()
	start := grid.Topology{Rows: 2, Cols: 2}
	submit := func(i int) {
		t.Helper()
		if _, err := sched.Submit(ctx, scheduler.JobSpec{
			Name: fmt.Sprintf("w%d", i), App: "lu", ProblemSize: 8000, Iterations: 10,
			InitialTopo: start, Chain: []grid.Topology{start},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The first job fills the 4-processor pool: a submit and a start
	// event for each subscription. A pump that takes the first may flush
	// before the second arrives, so up to four are queued.
	submit(0)
	const wedge = 4
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().FramesOut == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no event queued")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // both pumps reach their flush

	// 2 000 queued jobs: 2 000 more events for each subscription, of
	// which its channel holds 256.
	const flood, depth = 2000, 256
	for i := 1; i <= flood; i++ {
		submit(i)
	}
	time.Sleep(50 * time.Millisecond)
	if n := srv.Stats().FramesOut; n > wedge+2*depth {
		t.Fatalf("%d events queued for a peer that reads nothing, want at most %d: the pumps did not block", n, wedge+2*depth)
	}
}

// TestWedgedConnectionHoldsItsAdmission pipelines requests on a connection
// whose peer reads nothing. A request holds its in-flight slot until its
// reply is written, so past ConnInflight the rest are shed.
func TestWedgedConnectionHoldsItsAdmission(t *testing.T) {
	const limit, sent = 4, 12
	srv, err := Serve("127.0.0.1:0", scheduler.NewServer(4, false, nil), WithLimits(Limits{ConnInflight: limit}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	fw := wedgedPeer(t, srv)
	for id := uint64(1); id <= sent; id++ {
		if err := fw.Write(Frame{ID: id, Op: OpStatus}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Shed < sent-limit; {
		if time.Now().After(deadline) {
			st := srv.Stats()
			t.Fatalf("%d shed, %d served of %d requests, want %d shed: replies queued for a peer that reads nothing released their slots",
				st.Shed, st.Requests, sent, sent-limit)
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.Requests != limit || st.Shed != sent-limit {
		t.Fatalf("%d served, %d shed; want %d, %d", st.Requests, st.Shed, limit, sent-limit)
	}
}

// TestWedgedConnectionStallsOnlyItself pipelines contacts on a connection
// whose peer reads nothing. Its read loop stops taking frames once
// maxUnflushed replies are unwritten, so the replies queued for it stay
// bounded, and the scheduler's pipeline keeps serving another connection's
// contacts as before.
func TestWedgedConnectionStallsOnlyItself(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	topo := grid.Row1D(2)
	job, err := sched.Submit(context.Background(), scheduler.JobSpec{
		Name: "j", App: "mw", Iterations: 1 << 30, InitialTopo: topo, Chain: []grid.Topology{topo},
	})
	if err != nil {
		t.Fatal(err)
	}
	contact := func(id uint64) Frame {
		return Frame{ID: id, Op: OpContact, JobID: job, Topo: topo, IterTime: 1}
	}

	wedged := wedgedPeer(t, srv)
	go func() {
		// Blocks for good once the server stops reading; srv.Close ends it.
		for id := uint64(1); id <= 4*maxUnflushed; id++ {
			if wedged.Write(contact(id)) != nil {
				return
			}
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().FramesOut < maxUnflushed; {
		if time.Now().After(deadline) {
			t.Fatalf("%d replies queued for the wedged peer, want %d", srv.Stats().FramesOut, maxUnflushed)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room to take frames past the bound
	if n := srv.Stats().FramesOut; n > maxUnflushed {
		t.Fatalf("%d replies queued for a peer that reads nothing, want at most %d", n, maxUnflushed)
	}

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{MagicV2}); err != nil {
		t.Fatal(err)
	}
	if err := nc.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fw, fr := NewFrameWriter(nc), NewFrameReader(nc)
	for id := uint64(1); id <= 200; id++ {
		if err := fw.Write(contact(id)); err != nil {
			t.Fatal(err)
		}
		var r Reply
		if err := fr.Read(&r); err != nil {
			t.Fatalf("contact %d on the healthy connection: %v", id, err)
		}
		if r.ID != id || !r.Final || r.Err != "" {
			t.Fatalf("contact %d on the healthy connection: %+v", id, r)
		}
	}
	if n := srv.Stats().FramesOut; n > maxUnflushed+200 {
		t.Fatalf("%d replies queued in all, want at most %d for the wedged peer and 200 for the healthy one", n, maxUnflushed+200)
	}
}
