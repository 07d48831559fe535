package durability

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// flushSeam replaces a store's fsync. It can hold every flush at the seam
// until the test lets it through, fail every flush from a chosen one on,
// and it remembers how much of each segment the last good flush covered —
// what survives if the machine loses power or the kernel drops the pages a
// failed flush could not write.
type flushSeam struct {
	// entered gets one token per flush that reached the seam and release one
	// per flush allowed on; both nil means flushes are not held.
	entered, release chan struct{}
	// delay models a device that takes this long per flush.
	delay time.Duration

	mu     sync.Mutex
	calls  int
	failAt int              // every flush from this one (1-based) fails; 0 = none
	synced map[string]int64 // segment path -> bytes the last good flush covered
	atFail map[string]int64 // segment path -> bytes written when the first flush failed
}

var errInjected = errors.New("injected flush error")

// heldSeam holds flushes; let admits them one by one and open for good.
func heldSeam() *flushSeam {
	return &flushSeam{entered: make(chan struct{}, 1024), release: make(chan struct{})}
}

// let waits for n flushes to reach the seam, admitting each as it arrives.
func (g *flushSeam) let(n int) {
	for i := 0; i < n; i++ {
		<-g.entered
		g.release <- struct{}{}
	}
}

func (g *flushSeam) open() { close(g.release) }

func (g *flushSeam) fsync(f *os.File) error {
	// Only what was written before the flush began is covered by it.
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if g.entered != nil {
		g.entered <- struct{}{}
		<-g.release
	}
	if g.delay > 0 {
		time.Sleep(g.delay)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.calls++
	if g.failAt > 0 && g.calls >= g.failAt {
		if g.atFail == nil {
			g.atFail = map[string]int64{f.Name(): fi.Size()}
		}
		return errInjected
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if g.synced == nil {
		g.synced = make(map[string]int64)
	}
	g.synced[f.Name()] = fi.Size()
	return nil
}

// served is a scheduler Server on a store, wired the way cmd/reshaped wires
// it: Open, Restore (which hands the core the commit barrier), SetJournal,
// NewServerRecovered.
type served struct {
	st   *Store
	core *scheduler.Core
	srv  *scheduler.Server
	info RestoreInfo
	// written is every op the journal accepted, in journal order.
	written []scheduler.Op
	// refused is every op the journal refused. The first may be on disk all
	// the same (written, then its own flush failed); the store had failed
	// before it saw the others.
	refused []scheduler.Op
	// journaling, when set, sees each op as it enters the journal hook,
	// that is with the server lock held.
	journaling func(scheduler.Op)
}

func serve(t testing.TB, dir string, total int, opts Options, seam *flushSeam, starter scheduler.JobStarter) *served {
	t.Helper()
	p := &served{}
	opts.Capture = func() (*scheduler.CoreState, uint64) { return p.core.PersistState(), p.srv.Seq() }
	st, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seam != nil {
		st.w.fsync = seam.fsync
	}
	core, info, err := rec.Restore(buildOn(total))
	if err != nil {
		t.Fatal(err)
	}
	p.st, p.core, p.info = st, core, info
	core.SetJournal(func(op scheduler.Op) error {
		if p.journaling != nil {
			p.journaling(op)
		}
		if err := st.Append(op); err != nil {
			p.refused = append(p.refused, op)
			return err
		}
		p.written = append(p.written, op)
		return nil
	})
	p.srv = scheduler.NewServerRecovered(core, info.Seq, info.Clock, starter)
	return p
}

// copyDir copies a WAL directory's files into a fresh temporary directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

var pairTopo = grid.Row1D(2)

func pairSpec(name string) scheduler.JobSpec {
	return scheduler.JobSpec{
		Name: name, App: "jacobi", ProblemSize: 4000, Iterations: 10,
		InitialTopo: pairTopo, Chain: []grid.Topology{pairTopo},
	}
}

// waitFor polls cond, which must become true without the test's help.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// expectEvents receives n events and requires their seqs to follow last
// one by one; it returns the new last seq.
func expectEvents(t *testing.T, sub *scheduler.Subscription, last uint64, n int) uint64 {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case e := <-sub.C:
			if e.Seq != last+1 {
				t.Fatalf("event %q of job %d has seq %d, want %d", e.Kind, e.JobID, e.Seq, last+1)
			}
			last = e.Seq
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for event %d of %d after seq %d", i+1, n, last)
		}
	}
	return last
}

func expectNoEvent(t *testing.T, sub *scheduler.Subscription, when string) {
	t.Helper()
	select {
	case e := <-sub.C:
		t.Fatalf("%s: event %q (seq %d, job %d) was published before its op was durable", when, e.Kind, e.Seq, e.JobID)
	default:
	}
}

// TestNothingVisibleBeforeTheCoveringFlush holds the fsync seam closed and
// checks the ack protocol from every side that can observe an op: a
// Watch(AllJobs) subscriber, the JobStarter, Wait and the op's own caller
// see nothing until a flush that began after the op's record was written
// has finished; Status alone shows the uncommitted state. When the flushes
// are let through every event arrives once, seqs contiguous.
func TestNothingVisibleBeforeTheCoveringFlush(t *testing.T) {
	ctx := context.Background()
	seam := heldSeam()
	launched := make(chan int, 16)
	p := serve(t, t.TempDir(), 16, Options{Sync: SyncAlways}, seam, func(j *scheduler.Job) { launched <- j.ID })
	sub, err := p.srv.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	var acked atomic.Int32
	ids := make([]int, 4)
	submit := func(i int, wg *sync.WaitGroup) {
		defer wg.Done()
		id, err := p.srv.Submit(ctx, pairSpec(fmt.Sprintf("job-%d", i)))
		if err != nil {
			t.Errorf("submit %d: %v", i, err)
			return
		}
		ids[i] = id
		acked.Add(1)
	}

	// The first op finds a store nobody has committed on yet, so its flush
	// happens inside Append; from its Commit on, flushes happen in Commit.
	var wg sync.WaitGroup
	wg.Add(1)
	go submit(0, &wg)
	seam.let(1)
	wg.Wait()
	last := expectEvents(t, sub, 0, 2) // submit, start
	<-launched

	// One op alone in the seam: its flush began before the next two write.
	wg.Add(3)
	go submit(1, &wg)
	<-seam.entered
	go submit(2, &wg)
	go submit(3, &wg)
	waitFor(t, "all four records written", func() bool { return p.st.Stats().Appends == 4 })

	// Status takes the server lock, so it returns after the last op's first
	// lock hold: whatever that hold published would be in the channel by now.
	cs, err := p.srv.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Jobs) != 4 || cs.Busy != 8 {
		t.Fatalf("Status shows %d jobs on %d processors; uncommitted state should be 4 jobs on 8", len(cs.Jobs), cs.Busy)
	}
	expectNoEvent(t, sub, "three ops written, none flushed")
	if len(launched) != 0 || acked.Load() != 1 {
		t.Fatalf("before any flush: %d launches, %d acks beyond the first op's", len(launched), acked.Load()-1)
	}

	// Let the first flush finish. It covers job-1 alone; the two written
	// after it began must wait for a second one, which one of them leads.
	seam.release <- struct{}{}
	<-seam.entered
	waitFor(t, "the covered op's ack", func() bool { return acked.Load() == 2 })
	last = expectEvents(t, sub, last, 2)
	if id := <-launched; id != ids[1] {
		t.Fatalf("launched job %d, want the covered job %d", id, ids[1])
	}
	if _, err := p.srv.Status(ctx); err != nil {
		t.Fatal(err)
	}
	expectNoEvent(t, sub, "second flush still held")
	if len(launched) != 0 || acked.Load() != 2 {
		t.Fatalf("a flush that began before a record was written released it: %d launches, %d acks", len(launched), acked.Load())
	}
	seam.release <- struct{}{}
	wg.Wait()
	last = expectEvents(t, sub, last, 4)
	<-launched
	<-launched
	if st := p.st.Stats(); st.Appends != 4 || st.Syncs != 3 || st.MaxBatch != 2 {
		t.Fatalf("stats %+v, want 4 appends in 3 flushes, the largest covering 2", st)
	}

	// The caller of Contact gets no decision before the flush.
	decided := make(chan error, 1)
	go func() {
		_, err := p.srv.Contact(ctx, ids[1], pairTopo, 1.5, 0)
		decided <- err
	}()
	<-seam.entered
	select {
	case err := <-decided:
		t.Fatalf("Contact returned (%v) before its record was flushed", err)
	default:
	}
	seam.release <- struct{}{}
	if err := <-decided; err != nil {
		t.Fatal(err)
	}

	// Wait does not return for a job whose end is not durable yet.
	waited := make(chan error, 1)
	go func() { waited <- p.srv.Wait(ctx, ids[1]) }()
	ended := make(chan error, 1)
	go func() { ended <- p.srv.JobEnd(ctx, ids[1]) }()
	<-seam.entered
	if _, err := p.srv.Status(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waited:
		t.Fatalf("Wait returned (%v) before the job's end was flushed", err)
	case err := <-ended:
		t.Fatalf("JobEnd returned (%v) before its record was flushed", err)
	default:
	}
	expectNoEvent(t, sub, "job end written, not flushed")
	seam.release <- struct{}{}
	if err := <-ended; err != nil {
		t.Fatal(err)
	}
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	last = expectEvents(t, sub, last, 1)
	if last != p.srv.Seq() {
		t.Fatalf("last event seq %d, server Seq %d", last, p.srv.Seq())
	}
	seam.open()
	if err := p.st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpsApplyWhileAFlushIsHeld holds one flush open and submits four more
// ops behind it. They apply at once (Status shows them, acknowledged or
// not), and the next commit writes all four frames in one write and
// covers them with one fsync.
func TestOpsApplyWhileAFlushIsHeld(t *testing.T) {
	ctx := context.Background()
	seam := heldSeam()
	p := serve(t, t.TempDir(), 16, Options{Sync: SyncAlways}, seam, nil)
	var writes atomic.Int32
	p.st.w.write = func(f *os.File, b []byte) (int, error) {
		writes.Add(1)
		return f.Write(b)
	}
	var wg sync.WaitGroup
	submit := func(name string) {
		defer wg.Done()
		if _, err := p.srv.Submit(ctx, pairSpec(name)); err != nil {
			t.Errorf("submit %s: %v", name, err)
		}
	}
	// The first op flushes inside Append; the second is the first commit,
	// and its flush is held.
	wg.Add(1)
	go submit("first")
	seam.let(1)
	wg.Wait()
	wg.Add(5)
	go submit("held")
	<-seam.entered
	for i := 0; i < 4; i++ {
		go submit(fmt.Sprintf("behind-%d", i))
	}
	waitFor(t, "the ops behind the held flush to apply", func() bool {
		cs, err := p.srv.Status(ctx)
		return err == nil && len(cs.Jobs) == 6
	})
	before, stats := writes.Load(), p.st.Stats()
	if stats.Appends != 6 || stats.Syncs != 1 {
		t.Fatalf("while the flush is held: %+v, want 6 appends and the first op's fsync", stats)
	}
	seam.release <- struct{}{}
	seam.let(1)
	wg.Wait()
	if got := writes.Load() - before; got != 1 {
		t.Fatalf("the flush after the held one took %d writes for four records, want 1", got)
	}
	if st := p.st.Stats(); st.Syncs != 3 || st.MaxBatch != 4 {
		t.Fatalf("stats %+v, want the four records covered by one fsync", st)
	}
	if ps := p.srv.Stats(); ps.Ops != 6 {
		t.Fatalf("pipeline stats %+v, want 6 ops applied", ps)
	}
	seam.open()
	if err := p.st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotMidBatchKeepsSeqsGapFree forces a snapshot while an earlier
// op is applied but still waiting for its flush, so its events are recorded
// and unpublished when Capture reads the server's seq. The snapshot must
// carry the applied seq: a restart from it then continues the numbering
// where the first boot's watcher stopped, with no number used twice.
func TestSnapshotMidBatchKeepsSeqsGapFree(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	opts := Options{Sync: SyncAlways, SnapshotEvery: 3}
	seam := heldSeam()
	p := serve(t, dir, 16, opts, seam, nil)
	sub, err := p.srv.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	submit := func(srv *scheduler.Server, name string) {
		defer wg.Done()
		if _, err := srv.Submit(ctx, pairSpec(name)); err != nil {
			t.Errorf("submit %s: %v", name, err)
		}
	}
	for _, name := range []string{"a", "b"} {
		wg.Add(1)
		go submit(p.srv, name)
		seam.let(1)
		wg.Wait()
	}
	// The third op is applied and sits in its flush when the fourth, whose
	// Append finds three records past the last snapshot, takes one. The
	// fourth holds the server lock from before the flush is let go, so the
	// third cannot have published when the snapshot is captured.
	locked := make(chan struct{})
	p.journaling = func(op scheduler.Op) {
		if op.Spec.Name == "d" {
			close(locked)
		}
	}
	wg.Add(2)
	go submit(p.srv, "c")
	<-seam.entered
	go submit(p.srv, "d")
	<-locked
	seam.open()
	wg.Wait()
	last := expectEvents(t, sub, 0, 8)
	sub.Cancel()
	if _, snaps, err := scanDir(dir); err != nil || len(snaps) != 1 || snaps[0].first != 3 {
		t.Fatalf("snapshots %v (err %v), want one covering 3 records", snaps, err)
	}
	if err := p.st.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := serve(t, dir, 16, opts, nil, nil)
	defer p2.st.Close()
	if p2.info.Seq != last {
		t.Fatalf("recovered seq %d, the first boot published up to %d", p2.info.Seq, last)
	}
	sub2, err := p2.srv.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Cancel()
	wg.Add(1)
	submit(p2.srv, "e")
	expectEvents(t, sub2, last, 2)
}

// TestFlushFailureIsFailStop injects an fsync error under three concurrent
// committers. None of them is acknowledged, none of their events is
// published, nothing is launched, every later mutation is refused with
// ErrFailed, and the directory recovers to exactly what was acknowledged
// before the failure.
func TestFlushFailureIsFailStop(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	const good = 5
	seam := heldSeam()
	seam.failAt = good + 1
	launched := make(chan int, 16)
	p := serve(t, dir, 32, Options{Sync: SyncAlways}, seam, func(j *scheduler.Job) { launched <- j.ID })
	sub, err := p.srv.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	errs := make(chan error, 8)
	submit := func(name string) {
		_, err := p.srv.Submit(ctx, pairSpec(name))
		errs <- err
	}
	for i := 0; i < good; i++ {
		go submit(fmt.Sprintf("good-%d", i))
		seam.let(1)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		<-launched
	}
	last := expectEvents(t, sub, 0, 2*good)
	acked := append([]scheduler.Op(nil), p.written...)

	// Three ops pile up behind one flush, and the flush fails.
	for i := 0; i < 3; i++ {
		go submit(fmt.Sprintf("lost-%d", i))
	}
	<-seam.entered
	waitFor(t, "the doomed records", func() bool { return p.st.Stats().Appends == good+3 })
	seam.open()
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, ErrFailed) || !errors.Is(err, errInjected) {
			t.Fatalf("committer %d got %v, want ErrFailed wrapping the flush error", i, err)
		}
	}
	select {
	case <-p.st.Failed():
	default:
		t.Fatal("Failed() is not closed after a flush error")
	}
	if err := p.st.Err(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Err() = %v", err)
	}

	// Every further mutation is refused, and says why.
	running := p.core.Jobs()[0]
	if _, err := p.srv.Submit(ctx, pairSpec("late")); !errors.Is(err, ErrFailed) {
		t.Fatalf("Submit on a failed store: %v", err)
	}
	if _, err := p.srv.Contact(ctx, running.ID, pairTopo, 1, 0); !errors.Is(err, ErrFailed) {
		t.Fatalf("Contact on a failed store: %v", err)
	}
	if err := p.srv.JobEnd(ctx, running.ID); !errors.Is(err, ErrFailed) {
		t.Fatalf("JobEnd on a failed store: %v", err)
	}
	if err := p.st.Append(scheduler.Op{Kind: scheduler.OpRebalance, Now: 99}); !errors.Is(err, ErrFailed) {
		t.Fatalf("Append on a failed store: %v", err)
	}
	if err := p.st.Commit(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Commit on a failed store: %v", err)
	}
	if _, err := p.srv.Status(ctx); err != nil {
		t.Fatal(err)
	}
	expectNoEvent(t, sub, "after the flush failed")
	if len(launched) != 0 {
		t.Fatalf("%d jobs launched by ops that never became durable", len(launched))
	}
	if p.srv.Seq() != last+6 {
		t.Fatalf("Seq %d: the three applied submits recorded six events past %d", p.srv.Seq(), last)
	}
	if err := p.st.Close(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Close of a failed store: %v", err)
	}

	// A failed flush leaves the unflushed bytes in the page cache at best;
	// the kernel may equally have dropped them. Recovery is right either way:
	// with the bytes, the three unacknowledged ops replay in journal order...
	lost := copyDir(t, dir)
	for path, size := range seam.synced {
		if err := os.Truncate(filepath.Join(lost, filepath.Base(path)), size); err != nil {
			t.Fatal(err)
		}
	}
	st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, _, err := rec.Restore(buildOn(32))
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, replayOpsOn(t, 32, p.written), recovered)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and without them the directory holds exactly what was acknowledged.
	st3, rec, err := Open(lost, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if rec.TornTail {
		t.Fatal("a flush boundary is a frame boundary; nothing should be torn")
	}
	recovered, info, err := rec.Restore(buildOn(32))
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, replayOpsOn(t, 32, acked), recovered)
	if info.Seq != last {
		t.Fatalf("recovered seq %d, want the last published seq %d", info.Seq, last)
	}
}

// TestAppendAloneStillFlushesEveryRecord pins the contract of a store whose
// consumer never calls Commit (the benchmark ladder's append rung, tools
// that journal without a Server): one fsync inside every Append, and a
// flush error refuses the op and everything after it.
func TestAppendAloneStillFlushesEveryRecord(t *testing.T) {
	seam := &flushSeam{failAt: 4}
	st, _, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	st.w.fsync = seam.fsync
	ops := sampleOps()
	for i, op := range ops[:3] {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
		if got := st.Stats(); got.Syncs != uint64(i+1) || got.Appends != uint64(i+1) {
			t.Fatalf("after append %d: %+v", i+1, got)
		}
	}
	if err := st.Append(ops[3]); !errors.Is(err, ErrFailed) {
		t.Fatalf("append with a failing flush: %v", err)
	}
	if err := st.Append(ops[4]); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after a failed flush: %v", err)
	}
	if got := st.Stats(); got.Appends != 4 || got.Syncs != 3 {
		t.Fatalf("stats %+v: the refused append must not be counted, nor the failed flush", got)
	}
	if err := st.Close(); !errors.Is(err, ErrFailed) {
		t.Fatalf("close: %v", err)
	}
}

// TestCommitIsANoOpWithoutSyncAlways: under interval and none durability is
// not part of the acknowledgement, so Commit neither flushes nor waits.
func TestCommitIsANoOpWithoutSyncAlways(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncNone} {
		seam := heldSeam() // a flush from Commit would hang the test
		st, _, err := Open(t.TempDir(), Options{Sync: policy, SyncInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		st.w.fsync = seam.fsync
		for _, op := range sampleOps() {
			if err := st.Append(op); err != nil {
				t.Fatal(err)
			}
			if err := st.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if got := st.Stats(); got.Syncs != 0 {
			t.Fatalf("%v: %d flushes", policy, got.Syncs)
		}
		seam.open()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSyncFlushesUnderSyncNone: under SyncNone only Sync (or Close)
// makes appended records durable. One Sync flushes them all at once, a
// second with nothing new appended is a no-op, and Sync after Close
// returns nil.
func TestSyncFlushesUnderSyncNone(t *testing.T) {
	st, _, err := Open(t.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	ops := sampleOps()
	for _, op := range ops {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Stats(); got.Syncs != 0 {
		t.Fatalf("%d flushes before Sync", got.Syncs)
	}
	for i := 0; i < 2; i++ {
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := st.Stats(); got.Syncs != 1 || got.MaxBatch != uint64(len(ops)) {
			t.Fatalf("after Sync %d: %d flushes, largest batch %d; want 1 flush of %d", i+1, got.Syncs, got.MaxBatch, len(ops))
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync after Close: %v", err)
	}
}

// TestSyncIntervalLoopFlushes: under SyncInterval the background loop
// alone makes appended records durable, with no Commit or Sync call, and
// Close returns only once the loop has stopped.
func TestSyncIntervalLoopFlushes(t *testing.T) {
	st, _, err := Open(t.TempDir(), Options{Sync: SyncInterval, SyncInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range sampleOps() {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the sync loop's first flush", func() bool { return st.Stats().Syncs > 0 })
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-st.loopDone:
	default:
		t.Fatal("Close returned with the sync loop still running")
	}
}

// resizeChain is the ladder runJob's jobs resize along.
var resizeChain = []grid.Topology{grid.Row1D(1), grid.Row1D(2)}

// runJob takes one job through submit, contacts resize-point contacts
// (confirming every resize it is granted) and end, calling acked after each
// op the server acknowledges. It stops at the first error.
func runJob(srv *scheduler.Server, name string, contacts int, acked func()) error {
	ctx := context.Background()
	id, err := srv.Submit(ctx, scheduler.JobSpec{
		Name: name, App: "jacobi", ProblemSize: 4000, Iterations: 10,
		InitialTopo: resizeChain[0], Chain: resizeChain,
	})
	if err != nil {
		return err
	}
	acked()
	topo := resizeChain[0]
	for c := 0; c < contacts; c++ {
		d, err := srv.Contact(ctx, id, topo, 2.0, 0)
		if err != nil {
			return err
		}
		acked()
		if d.Action != scheduler.ActionNone {
			topo = d.Target
			if err := srv.ResizeComplete(ctx, id, 0.1); err != nil {
				return err
			}
			acked()
		}
	}
	if err := srv.JobEnd(ctx, id); err != nil {
		return err
	}
	acked()
	return nil
}

// hammer runs workers goroutines, each taking jobsEach jobs of its own
// through runJob.
func hammer(t testing.TB, srv *scheduler.Server, workers, jobsEach int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				if err := runJob(srv, fmt.Sprintf("w%d-%d", w, i), 3, func() {}); err != nil {
					t.Errorf("worker %d job %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGroupCommitBatchesOnlyUnderConcurrency: 32 goroutines hammering
// Submit/Contact/ResizeComplete/JobEnd share flushes (fewer fsyncs than
// records) and leave every processor accounted for, while one goroutine
// alone still gets exactly one flush per record.
func TestGroupCommitBatchesOnlyUnderConcurrency(t *testing.T) {
	for _, workers := range []int{1, 32} {
		// A flush that takes as long as a fast disk's, so that records do
		// pile up behind it whatever the test host's tmpfs does.
		seam := &flushSeam{delay: 200 * time.Microsecond}
		p := serve(t, t.TempDir(), 2*workers, Options{Sync: SyncAlways, SnapshotEvery: 50}, seam, nil)
		sub, err := p.srv.Watch(context.Background(), scheduler.AllJobs)
		if err != nil {
			t.Fatal(err)
		}
		// Every event once, in order and with no gap, however far the burst
		// outruns the subscriber.
		var last atomic.Uint64
		var gaps uint64
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for e := range sub.C {
				switch prev := last.Load(); {
				case e.Seq <= prev:
					t.Errorf("%d workers: seq %d after %d", workers, e.Seq, prev)
				case e.Seq != prev+1:
					gaps++
				}
				last.Store(e.Seq)
			}
		}()
		hammer(t, p.srv, workers, 8)
		// The stream is fed asynchronously and Cancel closes it at once, so
		// wait for the last event before cancelling.
		for deadline := time.Now().Add(10 * time.Second); last.Load() != p.srv.Seq() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		sub.Cancel()
		<-drained
		if t.Failed() {
			return
		}
		if gaps != 0 || last.Load() != p.srv.Seq() {
			t.Fatalf("%d workers: %d gaps and last seq %d of %d", workers, gaps, last.Load(), p.srv.Seq())
		}
		cs, err := p.srv.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if cs.Free != cs.Total || cs.Busy != 0 || cs.QueueLen != 0 {
			t.Fatalf("%d workers: %d of %d processors free, %d busy, %d queued after every job ended",
				workers, cs.Free, cs.Total, cs.Busy, cs.QueueLen)
		}
		got := p.st.Stats()
		if got.Appends != uint64(len(p.written)) {
			t.Fatalf("%d workers: %d appends counted, %d written", workers, got.Appends, len(p.written))
		}
		switch {
		case workers == 1 && (got.Syncs != got.Appends || got.MaxBatch != 1):
			t.Fatalf("one sequential committer: %+v, want one flush per record", got)
		case workers > 1 && (got.Syncs >= got.Appends || got.MaxBatch < 2):
			t.Fatalf("%d concurrent committers never shared a flush: %+v", workers, got)
		}
		if err := p.st.Close(); err != nil {
			t.Fatal(err)
		}
		// And the directory recovers to the state the run ended in.
		st2, rec, err := Open(p.st.dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		recovered, _, err := rec.Restore(buildOn(2 * workers))
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, p.core, recovered)
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// coverSeam is a slow fsync that remembers, per segment, the most bytes a
// finished flush covered, and the most flushes it ever saw at once.
type coverSeam struct {
	mu             sync.Mutex
	covered        map[string]int64
	inflight, most int
}

func (g *coverSeam) fsync(f *os.File) error {
	// Only what was written before the flush began is covered by it. A
	// segment closed under the flush fails here or in Sync.
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.inflight++
	g.most = max(g.most, g.inflight)
	g.mu.Unlock()
	time.Sleep(300 * time.Microsecond)
	err = f.Sync()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	if err == nil {
		g.covered[f.Name()] = max(g.covered[f.Name()], fi.Size())
	}
	return err
}

// TestConcurrentCommitCallers: Commit's one caller in the daemon is the
// scheduler Server's committer, but the Store stays correct under many.
// Eight goroutines each Append then Commit while snapshots rotate the log
// under them: every Commit returns only once its own record is flushed, no
// rotation closes a segment under an in-flight flush, and the directory
// recovers to every committed op.
func TestConcurrentCommitCallers(t *testing.T) {
	const workers, each = 8, 40
	var (
		mu       sync.Mutex // orders Append (and Snapshot) against appended
		appended []scheduler.Op
	)
	core := scheduler.NewCore(4, true)
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Sync: SyncAlways, Capture: func() (*scheduler.CoreState, uint64) {
		// Snapshot runs with mu held: seq is the record index it covers.
		return core.PersistState(), uint64(len(appended))
	}})
	if err != nil {
		t.Fatal(err)
	}
	seam := &coverSeam{covered: map[string]int64{}}
	st.w.fsync = seam.fsync

	done := make(chan struct{})
	snapped := make(chan int)
	go func() {
		n := 0
		defer func() { snapped <- n }()
		for {
			mu.Lock()
			err := st.Snapshot(0)
			mu.Unlock()
			if err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			n++
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				op := scheduler.Op{Kind: scheduler.OpContact, Now: float64(i), JobID: w, Topo: grid.Row1D(1 + i%4), IterTime: 1}
				mu.Lock()
				err := st.Append(op)
				appended = append(appended, op)
				// The record ends at this offset of this segment.
				st.mu.Lock()
				path, end := st.w.f.Name(), st.w.size
				st.mu.Unlock()
				mu.Unlock()
				if err != nil {
					t.Errorf("worker %d append %d: %v", w, i, err)
					return
				}
				if err := st.Commit(); err != nil {
					t.Errorf("worker %d commit %d: %v", w, i, err)
					return
				}
				seam.mu.Lock()
				covered := seam.covered[path]
				seam.mu.Unlock()
				if covered < end {
					t.Errorf("worker %d commit %d returned with %s flushed to byte %d, its record ends at %d", w, i, path, covered, end)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	snaps := <-snapped
	if t.Failed() {
		return
	}
	if seam.most < 2 {
		t.Fatalf("at most %d flush in flight at once: the commits never overlapped", seam.most)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if snaps == 0 || rec.State == nil {
		t.Fatalf("%d snapshots taken, recovered from none", snaps)
	}
	if len(appended) != workers*each || rec.seq+uint64(len(rec.Ops)) != uint64(len(appended)) {
		t.Fatalf("recovered snapshot at record %d plus %d records, want %d committed", rec.seq, len(rec.Ops), len(appended))
	}
	for i, op := range rec.Ops {
		if want := appended[int(rec.seq)+i]; !reflect.DeepEqual(op, want) {
			t.Fatalf("recovered record %d = %+v, committed %+v", int(rec.seq)+i, op, want)
		}
	}
}
