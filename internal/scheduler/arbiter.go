package scheduler

import (
	"sort"

	"repro/internal/grid"
)

// This file defines the cluster-wide arbitration layer. Historically every
// Contact answered the calling job in isolation through Policy.Decide; the
// Arbiter generalizes that hook to cluster scope: at each resize point it
// sees a snapshot of the whole scheduler — idle pool, the queued-job window
// with priorities and submission times, and (lazily) every running job's
// profile and configuration chain — and returns the decision for the
// contacting job.
// Stateful arbiters can plan multi-job reallocations across contacts, e.g.
// coordinating shrinks of several running jobs so that together they free
// exactly enough processors to start the queue head (see
// internal/scheduler/arbiter for the benefit-ranked implementation).
//
// The default PolicyArbiter reproduces the published single-job policy
// bit-identically, so cores without an explicit arbiter behave exactly as
// before the arbitration layer existed (pinned by TestPolicyArbiterMatchesPublishedDecide).

// ContactView is a read-only view of one running job handed to arbiters.
// The Profile pointer and the Chain slice alias live scheduler state:
// arbiters must treat them as immutable and must not retain them across
// calls. Every other field is a copy, and building a view is O(1) — the core
// keeps RemainingIters as a counter rather than re-summing the profile.
type ContactView struct {
	ID int
	// Tenant is the submitting principal ("" for the default tenant).
	Tenant   string
	Priority int
	Topo     grid.Topology
	Chain    []grid.Topology
	Profile  *Profile
	// RemainingIters estimates how many outer iterations the job still has
	// to run (<=0 when unknown or exceeded).
	RemainingIters int
	// PendingFree counts processors the job has already agreed to give back
	// through an in-flight shrink (released at ResizeComplete). Arbiters
	// subtract these from any fresh shrink demand so coordinated plans do
	// not over-shrink.
	PendingFree int
}

// QueuedView is a read-only view of one waiting job.
type QueuedView struct {
	ID int
	// Tenant is the submitting principal ("" for the default tenant).
	Tenant   string
	Priority int
	// Need is the job's initial processor requirement.
	Need int
	// Submit is the job's submission time. Its age at a snapshot,
	// snap.Now - Submit, is the input to starvation aging; carrying the
	// timestamp rather than the age keeps the view valid as the clock moves,
	// so Core rebuilds its queued window only when the queue changes.
	Submit float64
}

// TenantProcs returns the running processors of one tenant from a
// name-sorted usage list (0 for a tenant with nothing running).
func TenantProcs(tenants []TenantUsage, name string) int {
	i := sort.Search(len(tenants), func(k int) bool { return tenants[k].Tenant >= name })
	if i < len(tenants) && tenants[i].Tenant == name {
		return tenants[i].Procs
	}
	return 0
}

// ClusterView grants an arbiter lazy access to the running jobs, which
// would be too expensive to materialize on every contact. A contact is meant
// to cost what changed since the last one, not the size of the running set:
// the sums arbiters used to sweep for are snapshot fields (Tenants,
// PendingFree), EachShrinkable visits only the jobs a shrink plan can draft,
// EachExpandable only the jobs whose next step contends for a window of the
// idle pool, and Running looks one job up. A planning tick, the one decision
// that ranks every job, keeps its own per-job state and reads Changes for the
// jobs to bring up to date, walking EachRunning only to resync. The default
// arbiter calls none of it.
//
// A running job's view changes only through the core's ops (a start,
// Contact, ResizeComplete, Finish, Fail): the Profile a view points to must
// not be written any other way while the job runs, or Changes cannot report
// it.
type ClusterView interface {
	// EachRunning yields a view of every running job in ascending job-id
	// order (deterministic), stopping early when yield returns false. The
	// pointer is to a view the producer reuses for the next job: read it
	// during yield, copy it (*v) to keep it for the rest of the call, and do
	// not start another sweep from inside yield.
	EachRunning(yield func(*ContactView) bool)
	// EachShrinkable yields, in the same order and under the same rule, the
	// running jobs that have visited a configuration smaller than their
	// current one — exactly those with len(Profile.ShrinkPoints(Topo)) > 0.
	EachShrinkable(yield func(*ContactView) bool)
	// EachExpandable yields, under the same rule, the running jobs whose next
	// chain step adds between lo and hi processors inclusive — exactly those
	// with NextInChain(Chain, Topo) ok and lo <= next.Count()-Topo.Count() <= hi.
	// The order is deterministic but the producer's own (Core's index yields
	// by ascending step size, then job id; RunningViews by job id), so a
	// caller that ranks the jobs must break its ties explicitly.
	EachExpandable(lo, hi int, yield func(*ContactView) bool)
	// Running returns the view of one running job (false when the id is
	// queued, done or unknown).
	Running(id int) (ContactView, bool)
	// Changes yields, in no set order and perhaps more than once, the id of
	// every job that started or finished since c was handed out, and of
	// every running job whose Topo, RemainingIters, PendingFree or
	// Profile.Stamp() changed since then; it returns the cursor for the next
	// call. ok is false when it cannot say — c is the zero Cursor or another
	// set's, too much changed since, or the producer keeps no feed
	// (RunningViews) — and then nothing is yielded and the caller resyncs by
	// walking EachRunning. A feed serves one reader: a second reader's older
	// cursor resyncs. Core keeps the feed only once it is first asked.
	Changes(c Cursor, yield func(id int)) (next Cursor, ok bool)
}

// Cursor is a reader's position in a ClusterView's change feed. It is
// derived state: never persisted or journaled, so a restored core's first
// Changes call resyncs.
type Cursor struct {
	set *runningSet
	seq uint64
}

// ClusterSnapshot is everything an Arbiter sees at one resize point. The
// calling job's iteration has already been recorded in its profile when the
// snapshot is taken (matching the published Contact semantics).
type ClusterSnapshot struct {
	// Now is the scheduler clock at the contact.
	Now float64
	// Total and Idle describe the processor pool.
	Total int
	Idle  int
	// Caller is the job at the resize point.
	Caller ContactView
	// Queued is the head window of the wait queue in queue order (nil when
	// nothing waits). Like RemapInput.QueuedNeeds, Core caps it at
	// QueuedNeedsWindow entries — arbiters must therefore react only to the
	// jobs they can see (the head, in practice) and never assume the window
	// is the full queue. QueueLen has the full queue length.
	//
	// Queued is scratch owned by the snapshot's producer (Core reuses one
	// buffer across contacts): arbiters must read it during Decide/Rebalance
	// and never retain it across calls, the same rule that already covers
	// the Profile pointers.
	Queued   []QueuedView
	QueueLen int
	// Tenants lists every tenant with running jobs in ascending name order:
	// Running counts them and Procs sums their Topo.Count() (processors an
	// in-flight shrink has yet to release are in PendingFree, not here);
	// the Queued count is Status's alone and stays zero — arbiters see the
	// queue through the Queued window. Producer-owned scratch like Queued:
	// read it during the call, never retain it.
	Tenants []TenantUsage
	// PendingFree sums ContactView.PendingFree over the running set: the
	// processors in-flight shrinks will return at their ResizeComplete.
	PendingFree int
	// Cluster lazily exposes the running jobs.
	Cluster ClusterView

	// queuedNeeds, when non-nil, is the pre-materialized need list matching
	// Queued. Core fills it from its version-keyed window cache so the
	// published policy path gets its QueuedNeeds without allocating per
	// contact; snapshots built by hand (tests, tools) leave it nil and
	// fall back to materializing on demand. Same
	// ownership rule as Queued: scratch, never retain.
	queuedNeeds []int
}

// RunningViews is a fixed running set, in ascending id order, for snapshots
// built by hand (tests, tools): it implements ClusterView by sweeping, and
// Aggregates recomputes the snapshot's Tenants and PendingFree from the same
// sweep — the definitions the cores' incremental bookkeeping is held to.
type RunningViews []ContactView

// EachRunning implements ClusterView.
func (v RunningViews) EachRunning(yield func(*ContactView) bool) {
	for i := range v {
		if !yield(&v[i]) {
			return
		}
	}
}

// EachShrinkable implements ClusterView.
func (v RunningViews) EachShrinkable(yield func(*ContactView) bool) {
	for i := range v {
		if r := &v[i]; r.Profile != nil && len(r.Profile.ShrinkPoints(r.Topo)) > 0 && !yield(r) {
			return
		}
	}
}

// EachExpandable implements ClusterView.
func (v RunningViews) EachExpandable(lo, hi int, yield func(*ContactView) bool) {
	for i := range v {
		r := &v[i]
		next, ok := NextInChain(r.Chain, r.Topo)
		if d := next.Count() - r.Topo.Count(); ok && lo <= d && d <= hi && !yield(r) {
			return
		}
	}
}

// Running implements ClusterView.
func (v RunningViews) Running(id int) (ContactView, bool) {
	for _, r := range v {
		if r.ID == id {
			return r, true
		}
	}
	return ContactView{}, false
}

// Changes implements ClusterView: a fixed set keeps no feed, so every reader
// resyncs.
func (v RunningViews) Changes(Cursor, func(int)) (Cursor, bool) { return Cursor{}, false }

// Aggregates sums the set into name-sorted per-tenant usage and the total of
// in-flight give-backs.
//
//lint:allow testonly seam: TestVetoMatchesSweep and TestCarriedPlanMatchesFreshPlan build snapshot aggregates from hand-made views with it, and checkInvariants sweeps with it
func (v RunningViews) Aggregates() (tenants []TenantUsage, pendingFree int) {
	for _, r := range v {
		pendingFree += r.PendingFree
		i := sort.Search(len(tenants), func(k int) bool { return tenants[k].Tenant >= r.Tenant })
		if i == len(tenants) || tenants[i].Tenant != r.Tenant {
			tenants = append(tenants, TenantUsage{})
			copy(tenants[i+1:], tenants[i:])
			tenants[i] = TenantUsage{Tenant: r.Tenant}
		}
		tenants[i].Procs += r.Topo.Count()
		tenants[i].Running++
	}
	return tenants, pendingFree
}

// QueuedNeeds flattens the queued window into the processor-need list the
// published policy consumes (nil when nothing waits). The result may be
// producer-owned scratch: use it during the call, don't keep it.
func (s *ClusterSnapshot) QueuedNeeds() []int {
	if s.queuedNeeds != nil {
		return s.queuedNeeds
	}
	if len(s.Queued) == 0 {
		return nil
	}
	needs := make([]int, len(s.Queued))
	for i, q := range s.Queued {
		needs[i] = q.Need
	}
	return needs
}

// RemapInput converts the snapshot into the single-job policy input.
func (s *ClusterSnapshot) RemapInput() RemapInput {
	return RemapInput{
		Current:        s.Caller.Topo,
		Chain:          s.Caller.Chain,
		Profile:        s.Caller.Profile,
		IdleProcs:      s.Idle,
		QueuedNeeds:    s.QueuedNeeds(),
		RemainingIters: s.Caller.RemainingIters,
	}
}

// Arbiter decides what happens at a resize point, seeing the whole cluster.
// Implementations may keep state across calls (multi-job shrink plans,
// aging bookkeeping); calls are serialized by the core's external
// synchronization (the Server lock, or the single-threaded simulator), so
// no internal locking is needed.
type Arbiter interface {
	Name() string
	// Decide returns the expand/shrink/none decision for snap.Caller. The
	// core actuates it exactly like a Policy decision: expansions reserve
	// processors immediately (degrading to none if a concurrent claim won),
	// shrinks release at ResizeComplete.
	Decide(snap ClusterSnapshot) Decision
}

// Planner is the optional arbiter extension the global rebalancer
// implements: Rebalance is invoked on every journaled planning tick
// (Core.Rebalance) with a caller-less cluster snapshot — snap.Caller is
// the zero ContactView with ID -1 and must not be consulted — and the
// implementation recomputes its cluster-wide reallocation plan from it.
// Plans are arbiter state, delivered as ordinary Decisions at each job's
// next resize point; Rebalance itself must not assume it can mutate the
// cluster. Like Decide, calls are serialized by the core's external
// synchronization, and like Decide the snapshot's Profile pointers alias
// live scheduler state: read them during the call, never retain them.
type Planner interface {
	Rebalance(snap ClusterSnapshot)
}

// StartSnapshot is the view Core hands a StartPicker before each queue
// start: one QueuedView per tenant with waiting jobs — that tenant's queue
// head, in ascending tenant order — plus pool occupancy, per-tenant usage
// and lazy access to the running set. Like ClusterSnapshot, everything here
// is read-only producer-owned scratch and must not be retained across calls.
type StartSnapshot struct {
	// Now is the scheduler clock at the scheduling attempt.
	Now float64
	// Total and Idle describe the processor pool.
	Total int
	Idle  int
	// Heads has each tenant's best queued job (queue order within the
	// tenant), sorted by ascending tenant name. Never empty.
	Heads []QueuedView
	// Tenants and PendingFree are the running set's aggregates, as in
	// ClusterSnapshot.
	Tenants     []TenantUsage
	PendingFree int
	// Cluster lazily exposes the running jobs.
	Cluster ClusterView
}

// StartPicker is the optional arbiter extension a fair-share scheduler
// implements to control *which tenant's* job starts next. Core.TrySchedule
// consults it in a loop: PickStart returns the index into snap.Heads of the
// job to start, or a negative value to start nothing this round (leaving
// the idle pool for backfill, if enabled). Within a tenant, order remains
// the queue's own (priority, then submission id) — the picker only chooses
// among tenants. Implementations must be deterministic functions of the
// snapshot and their own journaled-input-derived state, exactly like
// Decide.
type StartPicker interface {
	PickStart(snap StartSnapshot) int
}

// PolicyArbiter adapts a single-job Policy to the Arbiter interface: the
// cluster snapshot is narrowed to the published RemapInput and the policy
// decides as if it were wired into Contact directly. It is the behavior of
// every core without an explicit SetArbiter call.
type PolicyArbiter struct {
	// Policy defaults to PaperPolicy.
	Policy Policy
}

// Name identifies the arbiter.
func (a PolicyArbiter) Name() string {
	if a.Policy == nil {
		return "single-job(paper)"
	}
	return "single-job(" + a.Policy.Name() + ")"
}

// Decide applies the wrapped policy to the caller's slice of the snapshot.
func (a PolicyArbiter) Decide(snap ClusterSnapshot) Decision {
	pol := a.Policy
	if pol == nil {
		pol = PaperPolicy{}
	}
	return pol.Decide(snap.RemapInput())
}

var _ Arbiter = PolicyArbiter{}
