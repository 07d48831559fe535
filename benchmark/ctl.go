package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durability"
	"repro/internal/perfmodel"
	"repro/internal/reshape"
	"repro/internal/resize"
	"repro/internal/rpc"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// Control-plane load shape, the same for ctl-durable and ctl-volatile: a
// closed loop of ctlDrivers job drivers (each is a job's rank 0, stalled at
// a resize point until the scheduler answers) over env.conns pipelined
// rpc/v2 connections, beside one watch subscriber and a status poll.
const (
	ctlDrivers    = 32
	ctlProcs      = 64
	ctlMaxProcs   = 16
	ctlIterations = 8
	ctlWarmShare  = 0.05
	ctlStatusTick = 100 * time.Millisecond
	ctlCallLimit  = 60 * time.Second
	// snapshotEvery is reshaped's -snapshot-every default.
	snapshotEvery = 10000
	// ctlRecoveries is how often a durable round's directory is recovered.
	ctlRecoveries = 10
)

// ctlJobs sizes one round so it lasts one to two seconds on two cores: the
// durable path is bound by one fsync per scheduler input, the volatile one
// by the wire and the server lock.
func ctlJobs(env *runEnv, durable bool) int {
	if durable {
		return env.scaled(1200, 40)
	}
	return env.scaled(10000, 40)
}

// starts hands a JobStarter callback to the driver waiting for that job.
type starts struct {
	mu sync.Mutex
	ch map[string]chan struct{}
}

func (s *starts) expect(name string) chan struct{} {
	ch := make(chan struct{})
	s.mu.Lock()
	s.ch[name] = ch
	s.mu.Unlock()
	return ch
}

func (s *starts) started(j *scheduler.Job) {
	s.mu.Lock()
	ch := s.ch[j.Spec.Name]
	delete(s.ch, j.Spec.Name)
	s.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// ctlPlane is one served scheduler: reshaped's wiring without the process.
type ctlPlane struct {
	core   *scheduler.Core
	srv    *scheduler.Server
	store  *durability.Store
	rpcSrv *rpc.Server
	// snapshots counts Capture calls: the store takes one per snapshot.
	snapshots int
}

func restoreCore(rec *durability.Recovery) (*scheduler.Core, durability.RestoreInfo, error) {
	return rec.Restore(func(cs *scheduler.CoreState) (*scheduler.Core, error) {
		if cs == nil {
			return scheduler.NewCoreSharded(ctlProcs, scheduler.DefaultShards(ctlProcs), true), nil
		}
		return scheduler.NewCoreFromState(cs)
	})
}

// openPlane builds the control plane the way cmd/reshaped does. journal,
// when non-nil, wraps the store's append hook (the traced run's seam).
func openPlane(dir string, starter scheduler.JobStarter, journal func(scheduler.JournalFunc) scheduler.JournalFunc) (*ctlPlane, error) {
	p := &ctlPlane{}
	if dir == "" {
		p.core = scheduler.NewCoreSharded(ctlProcs, scheduler.DefaultShards(ctlProcs), true)
		p.srv = scheduler.NewServerCore(p.core, starter)
	} else {
		st, rec, err := durability.Open(dir, durability.Options{
			SnapshotEvery: snapshotEvery,
			Sync:          durability.SyncAlways,
			Capture: func() (*scheduler.CoreState, uint64) {
				p.snapshots++
				return p.core.PersistState(), p.srv.Seq()
			},
		})
		if err != nil {
			return nil, err
		}
		core, info, err := restoreCore(rec)
		if err != nil {
			_ = st.Close()
			return nil, err
		}
		p.store, p.core = st, core
		hook := scheduler.JournalFunc(st.Append)
		if journal != nil {
			hook = journal(hook)
		}
		core.SetJournal(hook)
		p.srv = scheduler.NewServerRecovered(core, info.Seq, info.Clock, starter)
	}
	rs, err := rpc.Serve("127.0.0.1:0", p.srv)
	if err != nil {
		p.close()
		return nil, err
	}
	p.rpcSrv = rs
	return p, nil
}

func (p *ctlPlane) close() error {
	if p.rpcSrv != nil {
		_ = p.rpcSrv.Close()
		p.rpcSrv = nil
	}
	if p.store != nil {
		err := p.store.Close()
		p.store = nil
		return err
	}
	return nil
}

// watcher drains one Watch(AllJobs) stream. The broker drops events for a
// subscriber that lags rather than stall the scheduler, so a gap in the
// sequence is a counted loss; an event out of order or delivered twice is a
// fault.
type watcher struct {
	events   atomic.Uint64
	last     atomic.Uint64
	gaps     atomic.Uint64
	disorder atomic.Uint64
	done     chan struct{}
}

func startWatcher(sub *scheduler.Subscription) *watcher {
	w := &watcher{done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for ev := range sub.C {
			switch prev := w.last.Load(); {
			case ev.Seq <= prev:
				w.disorder.Add(1)
			case ev.Seq != prev+1:
				w.gaps.Add(1)
			}
			w.last.Store(ev.Seq)
			w.events.Add(1)
		}
	}()
	return w
}

// ctlOps counts client calls for the attempted/failed totals.
type ctlOps struct {
	attempted, failed atomic.Int64
}

func (o *ctlOps) note(err error) bool {
	o.attempted.Add(1)
	if err != nil {
		o.failed.Add(1)
		return false
	}
	return true
}

// ctlDriver is one closed-loop job driver's sample store.
type ctlDriver struct {
	submitMs, contactMs []float64
	contacts            int
}

// driveJob takes one job through its life over the wire: submit, wait for
// the JobStarter, one contact per iteration with the modelled iteration
// time, resize-complete after every granted resize, job-end.
func driveJob(cl resize.Scheduler, params *perfmodel.Params, in simcluster.JobInput, idx int,
	st *starts, ops *ctlOps, d *ctlDriver, tr *tracer) {
	call := func(kind string, op int, fn func(ctx context.Context) error) (float64, bool) {
		ctx, cancel := context.WithTimeout(context.Background(), ctlCallLimit)
		defer cancel()
		t0 := time.Now()
		err := fn(ctx)
		t1 := time.Now()
		if tr != nil {
			tr.request(kind, idx, op, t0, t1)
		}
		return ms(t1.Sub(t0)), ops.note(err)
	}

	started := st.expect(in.Spec.Name)
	var id int
	op := 0
	ms, ok := call("submit", op, func(ctx context.Context) (err error) {
		id, err = cl.Submit(ctx, in.Spec)
		return err
	})
	if !ok {
		return
	}
	if tr != nil {
		tr.bindJob(id, idx)
	}
	if d != nil {
		d.submitMs = append(d.submitMs, ms)
	}
	select {
	case <-started:
	case <-time.After(ctlCallLimit):
		ops.note(fmt.Errorf("job %s never started", in.Spec.Name))
		return
	}

	topo := in.Spec.InitialTopo
	lastRed := 0.0
	for it := 1; it < in.Spec.Iterations; it++ {
		iterTime, err := params.IterTime(in.Model, topo)
		if err != nil {
			ops.note(err)
			return
		}
		var dec scheduler.Decision
		op++
		ms, ok := call("contact", op, func(ctx context.Context) (err error) {
			dec, err = cl.Contact(ctx, id, topo, iterTime, lastRed)
			return err
		})
		if !ok {
			return
		}
		lastRed = 0
		if d != nil {
			d.contactMs = append(d.contactMs, ms)
			d.contacts++
		}
		if dec.Action == scheduler.ActionNone {
			continue
		}
		cost := params.RedistTime(in.Model, topo, dec.Target)
		op++
		if _, ok := call("resize-complete", op, func(ctx context.Context) error {
			return cl.ResizeComplete(ctx, id, cost)
		}); !ok {
			return
		}
		topo, lastRed = dec.Target, cost
	}
	op++
	call("job-end", op, func(ctx context.Context) error { return cl.JobEnd(ctx, id) })
}

// driveAll runs jobs [from, to) through ctlDrivers concurrent drivers. With
// sample set, each driver keeps its latency samples and they are returned.
func driveAll(cl resize.Scheduler, params *perfmodel.Params, mix []simcluster.JobInput, from, to int,
	st *starts, ops *ctlOps, sample bool, tr *tracer) []*ctlDriver {
	var next atomic.Int64
	next.Store(int64(from))
	drivers := make([]*ctlDriver, ctlDrivers)
	var wg sync.WaitGroup
	for i := range drivers {
		if sample {
			drivers[i] = &ctlDriver{}
		}
		wg.Add(1)
		go func(d *ctlDriver) {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= to {
					return
				}
				driveJob(cl, params, mix[idx], idx, st, ops, d, tr)
			}
		}(drivers[i])
	}
	wg.Wait()
	return drivers
}

// ctlRound sets the control plane up, drives one generated mix through it
// and checks what it left behind.
func ctlRound(env *runEnv, durable bool, tr *tracer) (*round, error) {
	r := newRound()
	n := ctlJobs(env, durable)

	// ---- set-up: generate, open, serve, dial, subscribe, warm up
	t0 := time.Now()
	mix, err := workload.Generate(workload.GenConfig{
		Seed: env.seed, Jobs: n, MeanInterarrival: 1, MaxProcs: ctlMaxProcs, Iterations: ctlIterations,
	})
	if err != nil {
		return nil, err
	}
	dir := ""
	if durable {
		if dir, err = os.MkdirTemp(env.outDir, "wal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	st := &starts{ch: make(map[string]chan struct{})}
	var journal func(scheduler.JournalFunc) scheduler.JournalFunc
	if tr != nil {
		journal = tr.journal
	}
	plane, err := openPlane(dir, st.started, journal)
	if err != nil {
		return nil, err
	}
	defer plane.close()
	cl, err := reshape.Dial(plane.rpcSrv.Addr(), reshape.WithPoolSize(env.conns))
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	observer, err := reshape.Dial(plane.rpcSrv.Addr())
	if err != nil {
		return nil, err
	}
	defer observer.Close()

	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	sub, err := observer.Watch(watchCtx, scheduler.AllJobs)
	if err != nil {
		return nil, err
	}
	w := startWatcher(sub)
	for deadline := time.Now().Add(10 * time.Second); plane.srv.Subscribers() == 0; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("watch subscription never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	ops := &ctlOps{}
	warm := int(float64(n) * ctlWarmShare)
	driveAll(cl, env.params, mix, 0, warm, st, ops, false, nil)
	r.setupS = time.Since(t0).Seconds()

	// ---- measured: the status poll runs beside the drivers
	pollDone := make(chan struct{})
	stopPoll := make(chan struct{})
	queueMax := 0
	go func() {
		defer close(pollDone)
		tick := time.NewTicker(ctlStatusTick)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				ctx, cancel := context.WithTimeout(context.Background(), ctlCallLimit)
				cs, err := observer.Status(ctx)
				cancel()
				if ops.note(err) && cs.QueueLen > queueMax {
					queueMax = cs.QueueLen
				}
			}
		}
	}()
	if tr != nil {
		names := make([]string, len(mix))
		for i := range mix {
			names[i] = mix[i].Spec.Name
		}
		tr.beginRequests(names)
		tr.active.Store(true)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	drivers := driveAll(cl, env.params, mix, warm, n, st, ops, true, tr)
	r.measureS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)
	if tr != nil {
		tr.active.Store(false)
	}
	close(stopPoll)
	<-pollDone
	r.jobs = n - warm
	r.mallocs = m1.Mallocs - m0.Mallocs

	contacts := 0
	for _, d := range drivers {
		r.samples["submit_ack_ms"] = append(r.samples["submit_ack_ms"], d.submitMs...)
		r.samples["contact_ms"] = append(r.samples["contact_ms"], d.contactMs...)
		contacts += d.contacts
	}

	// ---- checks at quiescence
	ctx, cancel := context.WithTimeout(context.Background(), ctlCallLimit)
	cs, err := observer.Status(ctx)
	cancel()
	if ops.note(err) {
		procs, done := 0, 0
		for _, j := range cs.Jobs {
			procs += j.Procs
			if j.State == scheduler.Done.String() {
				done++
			}
		}
		r.check(cs.Free+procs == cs.Total, "idle %d + allocated %d != total %d", cs.Free, procs, cs.Total)
		r.check(cs.Busy == 0 && cs.QueueLen == 0, "not quiescent: busy %d, queued %d", cs.Busy, cs.QueueLen)
		r.check(len(cs.Jobs) == n && done == n, "%d of %d jobs done, %d known", done, n, len(cs.Jobs))
	}
	// The stream is complete once the last published event arrived, or, if
	// the tail was dropped, once nothing more has come for a while.
	seq := plane.srv.Seq()
	for idle := 0; w.last.Load() < seq && idle < 1000; idle++ {
		before := w.events.Load()
		time.Sleep(time.Millisecond)
		if w.events.Load() != before {
			idle = 0
		}
	}
	// The stream is never out of order or repeated, and its gaps account for
	// exactly the events it lacks. Whether it may lack any depends on the
	// rate. The broker buffers 256 events per subscriber and drops for one
	// that lags further. ctl-durable publishes about 2k events a second, so
	// its subscriber has over 100 ms of slack and must get every event (it
	// does with four busy loops beside it on two cores). At ctl-volatile's
	// 30k events a second the slack is 8 ms, and how often a runnable
	// goroutine waits that long for a processor is the host's doing, not the
	// program's: on a quiet box a subscriber, this one or an in-process one
	// that only counts, loses events in about 1 round of 40, up to 0.7 % of a
	// round's; with two busy loops beside the run it loses 1 to 2 % in most
	// rounds. Dropping for a lagging subscriber is the broker's documented
	// behaviour, so there the loss is counted (watch_lost), never failed.
	got, lost := w.events.Load(), uint64(0)
	if got < seq {
		lost = seq - got
	}
	r.check(w.disorder.Load() == 0 && got <= seq && (lost == 0) == (w.gaps.Load() == 0 && w.last.Load() == seq),
		"watch stream: %d events for %d published, %d out of order or repeated, %d gaps, last seq %d",
		got, seq, w.disorder.Load(), w.gaps.Load(), w.last.Load())
	if durable {
		r.check(lost == 0 && sub.Dropped() == 0, "watch stream: a subscriber with 100 ms of slack lost %d of %d events (%d dropped by its client)",
			lost, seq, sub.Dropped())
	}
	stats := plane.rpcSrv.Stats()
	r.check(stats.Shed == 0 && stats.Malformed == 0, "rpc shed %d, malformed %d", stats.Shed, stats.Malformed)
	stopWatch()
	<-w.done

	r.attempted = int(ops.attempted.Load())
	r.failed = int(ops.failed.Load())
	r.layer["rpc.requests"] = float64(stats.Requests)
	r.layer["rpc.shed"] = float64(stats.Shed)
	r.layer["rpc.malformed"] = float64(stats.Malformed)
	r.layer["reshape.dials"] = float64(cl.Dials() + observer.Dials())
	r.layer["scheduler.contacts"] = float64(contacts)
	r.layer["scheduler.watch_events"] = float64(got)
	r.layer["scheduler.watch_lost"] = float64(lost)
	r.maxLayer("scheduler.queue_len_max", float64(queueMax))
	for _, e := range plane.core.Events {
		switch e.Kind {
		case "expand":
			r.layer["scheduler.expands"]++
		case "shrink":
			r.layer["scheduler.shrinks"]++
		}
	}

	if !durable {
		return r, nil
	}

	// ---- durable only: what the run acknowledged must be what a restart finds
	records := plane.store.Index()
	if err := plane.close(); err != nil {
		return nil, fmt.Errorf("close wal: %w", err)
	}
	r.layer["durability.appends"] = float64(records)
	r.layer["durability.snapshots"] = float64(plane.snapshots)
	var core *scheduler.Core
	var info durability.RestoreInfo
	var recoverMs, openMs []float64
	for i := 0; i < ctlRecoveries; i++ {
		t2 := time.Now()
		store, rec, err := durability.Open(dir, durability.Options{Sync: durability.SyncAlways})
		if err != nil {
			return nil, fmt.Errorf("reopen wal: %w", err)
		}
		tOpen := time.Since(t2)
		core, info, err = restoreCore(rec)
		recoverMs = append(recoverMs, ms(time.Since(t2)))
		openMs = append(openMs, ms(tOpen))
		_ = store.Close() // nothing was appended
		if err != nil {
			return nil, fmt.Errorf("recover wal: %w", err)
		}
	}
	r.vals["recover_ms"] = median(recoverMs)
	r.vals["recover_open_ms"] = median(openMs)
	names := make(map[string]bool, n)
	for _, in := range mix {
		names[in.Spec.Name] = true
	}
	wrong := 0
	for _, j := range core.Jobs() {
		if !names[j.Spec.Name] || j.State != scheduler.Done {
			wrong++
		}
		delete(names, j.Spec.Name)
	}
	r.check(wrong == 0 && len(names) == 0 && info.Jobs == n,
		"recovery: %d jobs recovered for %d acknowledged, %d wrong or twice, %d missing", info.Jobs, n, wrong, len(names))
	r.check(core.Free() == ctlProcs, "recovery: %d of %d processors idle", core.Free(), ctlProcs)
	return r, nil
}

// dirBytes totals the files of a WAL directory.
func dirBytes(dir string) (bytes int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
		}
	}
	return bytes
}
