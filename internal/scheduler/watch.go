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
	// C delivers events in Seq order. Slow consumers lose events rather
	// than stalling the scheduler; Dropped counts the losses.
	C <-chan JobEvent

	cancel  func()
	dropped *atomic.Uint64
}

// NewSubscription builds a subscription around an event channel. cancel is
// invoked (once) by Cancel. It is exported for transport packages that
// implement Watch remotely; applications only consume subscriptions.
func NewSubscription(c <-chan JobEvent, cancel func()) *Subscription {
	return &Subscription{C: c, cancel: cancel, dropped: new(atomic.Uint64)}
}

// Cancel ends the subscription; C is closed once in-flight events drain.
func (s *Subscription) Cancel() {
	if s.cancel != nil {
		s.cancel()
	}
}

// Dropped reports how many events were discarded because the consumer fell
// behind the event channel's buffer.
func (s *Subscription) Dropped() uint64 {
	if s.dropped == nil {
		return 0
	}
	return s.dropped.Load()
}

// NoteDrop records a lost event. It is called by publishers (the server
// broker and the wire transports), not consumers.
func (s *Subscription) NoteDrop() { s.dropped.Add(1) }

// subscriber is the server side of one Watch call.
type subscriber struct {
	jobID int // AllJobs or a specific job
	ch    chan JobEvent
	sub   *Subscription
}

// watchBuffer is the per-subscription channel depth. A watcher that lags
// more than this many events behind starts losing events (counted on its
// Subscription) instead of blocking the scheduler lock.
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
// AllJobs for the whole cluster. Events already recorded before the call
// are not replayed; the stream starts with the next transition. The
// subscription ends when ctx is cancelled or Cancel is called.
//
// Watch requires the core's allocation trace (the default; see
// Core.DisableTrace): events are published from it, so on a core without
// one Watch returns an error rather than a stream that never delivers.
func (s *Server) Watch(ctx context.Context, jobID int) (*Subscription, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch := make(chan JobEvent, watchBuffer)
	done := make(chan struct{})
	var once sync.Once
	sub := NewSubscription(ch, func() { once.Do(func() { close(done) }) })
	// The subscriber must be fully initialized before it is published to
	// the broker: publishLocked reads w.sub under s.mu.
	w := &subscriber{jobID: jobID, ch: ch, sub: sub}

	s.mu.Lock()
	if !s.core.trace {
		s.mu.Unlock()
		return nil, errors.New("scheduler: watch needs the core's allocation trace, which is disabled")
	}
	// Anything recorded and not yet published belongs to a batch still
	// waiting for its commit, which publishes it to this subscriber too.
	id := s.nextSub
	s.nextSub++
	if s.subs == nil {
		s.subs = make(map[int]*subscriber)
	}
	s.subs[id] = w
	s.mu.Unlock()
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		s.mu.Lock()
		delete(s.subs, id)
		s.mu.Unlock()
		close(ch)
	}()
	return sub, nil
}

// Subscribers reports the number of live watch subscriptions — broker
// observability for operators and for tests that must know a fleet of
// watchers has finished registering before publishing events.
func (s *Server) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// publishLocked fans the recorded core events below index hwm that have not
// been published yet out to subscribers. It must run with s.mu held; the
// apply goroutine (volatile) or the committer (durable) calls it for every
// batch.
func (s *Server) publishLocked(hwm int) {
	if s.pubIdx >= hwm {
		return
	}
	for _, e := range s.core.Events[s.pubIdx:hwm] {
		s.seq++
		ev := JobEvent{
			Seq:   s.seq,
			Time:  e.Time,
			JobID: e.JobID,
			Job:   e.Job,
			Kind:  e.Kind,
			Topo:  e.Topo,
			Busy:  e.Busy,
			Free:  s.core.Total - e.Busy,
		}
		for _, w := range s.subs {
			if w.jobID != AllJobs && w.jobID != e.JobID {
				continue
			}
			select {
			case w.ch <- ev:
			default:
				w.sub.NoteDrop()
			}
		}
	}
	s.pubIdx = hwm
}
