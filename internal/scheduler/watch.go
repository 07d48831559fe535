package scheduler

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/grid"
)

// AllJobs is the Watch jobID sentinel selecting every job's events.
const AllJobs = -1

// JobInfo is a point-in-time job snapshot, as Status reports it.
type JobInfo struct {
	ID       int
	Name     string
	App      string
	Tenant   string
	State    string
	Priority int
	Topo     grid.Topology
	Procs    int
	Submit   float64
	Start    float64
	End      float64
}

// ClusterStatus is the scheduler snapshot returned by Status: pool
// occupancy, queue pressure, every job in submission order, and the
// per-tenant usage rollup (ascending tenant name).
type ClusterStatus struct {
	Total    int
	Free     int
	Busy     int
	QueueLen int
	Jobs     []JobInfo
	Tenants  []TenantUsage
}

// TenantUsage aggregates one tenant's live footprint: running and queued
// job counts plus the processors its running jobs compute on. Done jobs do
// not appear; a tenant with no live jobs has no row. Arbiter snapshots list
// the same rows for the tenants with running jobs, Queued left zero
// (ClusterSnapshot.Tenants).
type TenantUsage struct {
	Tenant  string
	Running int
	Queued  int
	Procs   int
}

// JobEvent is one job-state transition streamed to watchers: the alloc
// trace of Figures 4(a)/5(a) delivered as server push instead of a polled
// snapshot. Seq increases by one per event on a given server, so clients
// can detect gaps after a reconnect.
type JobEvent struct {
	Seq   uint64
	Time  float64
	JobID int
	Job   string
	Kind  string // "submit", "start", "expand", "shrink", "end", "error"
	Topo  grid.Topology
	Busy  int
	Free  int
}

// Subscription is a live job-event stream. C is closed when the
// subscription ends (context cancelled, Cancel called, or — for remote
// subscriptions — the client shut down). Both the in-process Server and
// the wire clients hand out the same type, so watch-driven code is
// transport-agnostic.
type Subscription struct {
	// C delivers events in Seq order. A consumer that lags holds back only
	// its own stream, which loses nothing.
	C <-chan JobEvent

	cancel func()
}

// NewSubscription builds a subscription around an event channel. cancel is
// invoked (once) by Cancel. It is exported for transport packages that
// implement Watch remotely; applications only consume subscriptions.
func NewSubscription(c <-chan JobEvent, cancel func()) *Subscription {
	return &Subscription{C: c, cancel: cancel}
}

// Cancel ends the subscription. C is closed promptly; events already
// buffered in it can still be received.
func (s *Subscription) Cancel() {
	if s.cancel != nil {
		s.cancel()
	}
}

// Dropped reports how many events the subscription lost. It is always 0: a
// stream is a cursor over the server's event trace, so a consumer that lags
// only delays its own events, and over the wire TCP carries that
// backpressure to the server's cursor. A remote stream can still miss the
// events published while it reconnects; Seq gaps show those.
func (s *Subscription) Dropped() uint64 { return 0 }

// watchFeed is the published prefix of the core's allocation trace, which
// every Watch reads through a cursor of its own without taking the server
// lock: an event below the prefix is never written again, and the view's
// job table names every job the prefix holds (see traceView).
type watchFeed struct {
	mu       sync.Mutex
	wake     sync.Cond    // broadcast when events grows or a watch stops
	events   traceView    // the core's trace up to the published event
	watchers atomic.Int64 // live subscriptions
}

// watchBuffer is the depth of a subscription's channel. It bounds both the
// batch the rpc watch pump writes at once and what a wedged subscription
// holds, since past it the feeder waits. 256 is about 8 ms of events at
// the ctl-volatile benchmark's 30k a second.
const watchBuffer = 256

// Status returns a typed snapshot of the scheduler. The context is
// accepted for interface uniformity with remote schedulers; the in-process
// call never blocks.
//
// Status is read-uncommitted on a durable control plane: it shows ops that
// are applied but whose journal records are still being flushed, so a job
// can appear here a moment before its submitter is acknowledged or its
// events reach a watcher — and, if the flush then fails or the machine
// dies, never reach them at all.
func (s *Server) Status(ctx context.Context) (ClusterStatus, error) {
	if err := ctx.Err(); err != nil {
		return ClusterStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ClusterStatus{
		Total:    s.core.Total,
		Free:     s.core.Free(),
		Busy:     s.core.Busy(),
		QueueLen: s.core.QueueLen(),
	}
	// usage indexes st.Tenants by tenant name; rows are created in job-id
	// order and sorted by name afterwards, so the rollup never ranges a map.
	usage := make(map[string]int)
	for _, j := range s.core.Jobs() {
		procs := 0
		if j.State == Running {
			procs = j.Topo.Count()
		}
		st.Jobs = append(st.Jobs, JobInfo{
			ID: j.ID, Name: j.Spec.Name, App: j.Spec.App, Tenant: j.Spec.Tenant,
			State: j.State.String(), Priority: j.Spec.Priority, Topo: j.Topo,
			Procs: procs, Submit: j.SubmitTime, Start: j.StartTime, End: j.EndTime,
		})
		if j.State == Done {
			continue
		}
		idx, ok := usage[j.Spec.Tenant]
		if !ok {
			idx = len(st.Tenants)
			usage[j.Spec.Tenant] = idx
			st.Tenants = append(st.Tenants, TenantUsage{Tenant: j.Spec.Tenant})
		}
		u := &st.Tenants[idx]
		if j.State == Running {
			u.Running++
			u.Procs += j.Topo.Count()
		} else {
			u.Queued++
		}
	}
	sort.Slice(st.Tenants, func(i, k int) bool { return st.Tenants[i].Tenant < st.Tenants[k].Tenant })
	return st, nil
}

// Watch subscribes to job-state transitions. jobID selects one job, or
// AllJobs for the whole cluster. Events already published before the call
// are not replayed; the stream starts with the next transition. The
// subscription ends when ctx is cancelled or Cancel is called.
//
// A subscription is a cursor into the core's allocation trace, fed by a
// goroutine of its own: a consumer that stops reading holds back only that
// goroutine, and it resumes where it stopped. Watch therefore requires the
// trace (the default; see Core.DisableTrace): on a core without one it
// returns an error rather than a stream that never delivers.
func (s *Server) Watch(ctx context.Context, jobID int) (*Subscription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !s.core.trace { // set before the core is served, and never after
		return nil, errors.New("scheduler: watch needs the core's allocation trace, which is disabled")
	}
	f := &s.watch
	ch := make(chan JobEvent, watchBuffer)
	done := make(chan struct{})
	stopped := false // under f.mu, and set as done is closed
	stop := sync.OnceFunc(func() {
		f.mu.Lock()
		stopped = true
		close(done)
		f.wake.Broadcast()
		f.mu.Unlock()
	})
	// The cursor starts at the published prefix: anything recorded beyond
	// it belongs to a batch still waiting for its commit, which publishes it
	// to this subscriber too.
	f.mu.Lock()
	next := len(f.events.recs)
	f.mu.Unlock()
	f.watchers.Add(1)
	unhook := context.AfterFunc(ctx, stop)
	go func() {
		defer close(ch)
		defer f.watchers.Add(-1)
		defer unhook()
		for {
			f.mu.Lock()
			for next == len(f.events.recs) && !stopped {
				f.wake.Wait()
			}
			evs, end := f.events, stopped
			f.mu.Unlock()
			if end {
				return
			}
			for ; next < len(evs.recs); next++ {
				if jobID != AllJobs && jobID != int(evs.recs[next].job) {
					continue
				}
				e := evs.at(next)
				select {
				case ch <- JobEvent{
					Seq:  s.seq0 + uint64(next-s.idx0) + 1,
					Time: e.Time, JobID: e.JobID, Job: e.Job, Kind: e.Kind,
					Topo: e.Topo, Busy: e.Busy, Free: s.core.Total - e.Busy,
				}:
				case <-done:
					return
				}
			}
		}
	}()
	return NewSubscription(ch, stop), nil
}

// Subscribers reports the number of live watch subscriptions — broker
// observability for operators and for tests that must know a fleet of
// watchers has finished registering before publishing events.
func (s *Server) Subscribers() int { return int(s.watch.watchers.Load()) }

// publishLocked publishes the recorded core events below index hwm: it
// moves the published prefix and wakes the waiting feeders. It must
// run with s.mu held; the apply goroutine (volatile) or the committer
// (durable) calls it for every batch.
func (s *Server) publishLocked(hwm int) {
	f := &s.watch
	f.mu.Lock()
	if hwm > len(f.events.recs) {
		f.events = s.core.traceView()
		f.events.recs = f.events.recs[:hwm]
		f.wake.Broadcast()
	}
	f.mu.Unlock()
}
