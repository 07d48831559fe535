package scheduler

import "sort"

// jobQueue is the indexed wait queue that replaces the linear-scan slice.
// Head order (higher Priority first, submission id among equals) comes from
// per-priority FIFO lists: jobs link intrusively (Job.qprev/qnext) into the
// bucket for their priority, and the sorted bucket directory yields the
// global head in O(1). Per-need buckets let backfill find the best-ranked
// job that fits the idle pool without scanning the whole queue — the number
// of distinct processor needs is small (one per chain start configuration)
// even when hundreds of thousands of jobs wait.
//
// The priority lists unlink eagerly on take, so walking them never touches
// consumed jobs — head() and window() are O(1)/O(k) no matter how many jobs
// have churned through. The need and tenant bucket heaps still remove
// lazily (entries skipped when State left Queued): a job started through
// the head index costs nothing to drop from them. Need buckets whose heaps
// drain are pruned — eagerly when bestFit surfaces an empty bucket, and by
// an amortized sweep every ~len(needs) takes — so a long-running daemon
// churning jobs with many distinct processor needs does not grow the index
// without bound or make bestFit scan dead buckets forever.
//
// version increments on every push and take; Core keys its materialized
// queued-window caches on it so snapshots rebuild only when the queue
// actually changed.
type jobQueue struct {
	prio    map[int]*prioList // priority -> FIFO list of queued jobs
	prios   []int             // distinct keys of prio, sorted descending, buckets never empty
	need    map[int]*jobHeap  // processor need -> queued jobs with that need
	needs   []int             // sorted distinct keys of need (may include empty buckets)
	size    int               // live queued jobs
	takes   int               // takes since the last bucket sweep
	version uint64            // bumped on every push/take

	// deadNeeds/deadTenants are reusable scratch for the bucket-pruning
	// passes in bestFit and tenantHeads, so steady-state backfill scans
	// allocate nothing.
	deadNeeds   []int
	deadTenants []string

	// The tenant index mirrors the need index per Spec.Tenant so a
	// fair-share StartPicker can see every tenant's queue head without
	// scanning. It costs one extra heap push per submit, so it is off until
	// enableTenantIndex — single-tenant FCFS/benefit runs pay nothing.
	byTenant  map[string]*jobHeap // tenant -> queued jobs for that tenant
	tenants   []string            // sorted distinct keys of byTenant (may include empty buckets)
	tenantIdx bool
}

// prioList is one priority bucket: a doubly linked FIFO of queued jobs in
// ascending submission id, threaded through Job.qprev/qnext.
type prioList struct {
	head, tail *Job
}

// insert links j into the list keeping ascending id order. Submissions
// arrive with monotonically increasing ids (and snapshot restore re-pushes
// in id order), so the walk from the tail is O(1) in practice.
func (l *prioList) insert(j *Job) {
	at := l.tail
	for at != nil && j.ID < at.ID {
		at = at.qprev
	}
	if at == nil {
		j.qnext = l.head
		j.qprev = nil
		if l.head != nil {
			l.head.qprev = j
		} else {
			l.tail = j
		}
		l.head = j
		return
	}
	j.qprev = at
	j.qnext = at.qnext
	if at.qnext != nil {
		at.qnext.qprev = j
	} else {
		l.tail = j
	}
	at.qnext = j
}

// remove unlinks j from the list.
func (l *prioList) remove(j *Job) {
	if j.qprev != nil {
		j.qprev.qnext = j.qnext
	} else {
		l.head = j.qnext
	}
	if j.qnext != nil {
		j.qnext.qprev = j.qprev
	} else {
		l.tail = j.qprev
	}
	j.qprev, j.qnext = nil, nil
}

// jobLess is the queue's total order: higher priority first, then earlier
// submission (lower id).
func jobLess(a, b *Job) bool {
	if a.Spec.Priority != b.Spec.Priority {
		return a.Spec.Priority > b.Spec.Priority
	}
	return a.ID < b.ID
}

// push enqueues a job into every index.
func (q *jobQueue) push(j *Job) {
	q.version++
	p := j.Spec.Priority
	pl, ok := q.prio[p]
	if !ok {
		if q.prio == nil {
			q.prio = make(map[int]*prioList)
		}
		pl = &prioList{}
		q.prio[p] = pl
		// Insert the key keeping prios sorted descending.
		i := sort.Search(len(q.prios), func(k int) bool { return q.prios[k] <= p })
		q.prios = append(q.prios, 0)
		copy(q.prios[i+1:], q.prios[i:])
		q.prios[i] = p
	}
	pl.insert(j)
	n := j.Spec.InitialTopo.Count()
	b, ok := q.need[n]
	if !ok {
		if q.need == nil {
			q.need = make(map[int]*jobHeap)
		}
		b = &jobHeap{}
		q.need[n] = b
		i := sort.SearchInts(q.needs, n)
		q.needs = append(q.needs, 0)
		copy(q.needs[i+1:], q.needs[i:])
		q.needs[i] = n
	}
	b.push(j)
	if q.tenantIdx {
		q.tenantPush(j)
	}
	q.size++
}

// enableTenantIndex turns the per-tenant index on, backfilling it from any
// jobs already queued (recovery installs the arbiter on a core that may
// have restored a populated queue from a snapshot). Idempotent. Heap pop
// order under the total jobLess order is insertion-order independent, and
// the priority lists are walked in deterministic head order, so the index
// is deterministic.
func (q *jobQueue) enableTenantIndex() {
	if q.tenantIdx {
		return
	}
	q.tenantIdx = true
	for _, p := range q.prios {
		for j := q.prio[p].head; j != nil; j = j.qnext {
			q.tenantPush(j)
		}
	}
}

// tenantPush enqueues a job into its tenant bucket, creating the bucket
// (and its sorted key) on first use.
func (q *jobQueue) tenantPush(j *Job) {
	t := j.Spec.Tenant
	b, ok := q.byTenant[t]
	if !ok {
		if q.byTenant == nil {
			q.byTenant = make(map[string]*jobHeap)
		}
		b = &jobHeap{}
		q.byTenant[t] = b
		i := sort.SearchStrings(q.tenants, t)
		q.tenants = append(q.tenants, "")
		copy(q.tenants[i+1:], q.tenants[i:])
		q.tenants[i] = t
	}
	b.push(j)
}

// tenantHeads appends each tenant's queue head to dst in ascending tenant
// order. Buckets found empty are pruned on the way, exactly like bestFit's
// need buckets.
func (q *jobQueue) tenantHeads(dst []*Job) []*Job {
	dead := q.deadTenants[:0]
	for _, t := range q.tenants {
		top := q.byTenant[t].peekLive()
		if top == nil {
			dead = append(dead, t)
			continue
		}
		dst = append(dst, top)
	}
	for _, t := range dead {
		q.removeTenant(t)
	}
	q.deadTenants = dead[:0]
	return dst
}

// removeTenant drops one tenant bucket from both tenant-index structures.
func (q *jobQueue) removeTenant(t string) {
	delete(q.byTenant, t)
	i := sort.SearchStrings(q.tenants, t)
	if i < len(q.tenants) && q.tenants[i] == t {
		q.tenants = append(q.tenants[:i], q.tenants[i+1:]...)
	}
}

// len returns the number of live queued jobs.
func (q *jobQueue) len() int { return q.size }

// head returns the next job in FCFS order without removing it.
func (q *jobQueue) head() *Job {
	if len(q.prios) == 0 {
		return nil
	}
	return q.prio[q.prios[0]].head
}

// take marks the job consumed: it is unlinked from its priority list
// immediately (emptied buckets are dropped so head() stays O(1)), while the
// need/tenant heaps drop it lazily — the caller transitions the job out of
// Queued state, and stale entries are discarded when they surface at a heap
// top. Every ~len(needs) takes the need index is swept for empty buckets,
// keeping it proportional to the number of needs actually waiting
// (amortized O(1) per take).
func (q *jobQueue) take(j *Job) {
	q.version++
	p := j.Spec.Priority
	if pl, ok := q.prio[p]; ok {
		pl.remove(j)
		if pl.head == nil {
			delete(q.prio, p)
			i := sort.Search(len(q.prios), func(k int) bool { return q.prios[k] <= p })
			if i < len(q.prios) && q.prios[i] == p {
				q.prios = append(q.prios[:i], q.prios[i+1:]...)
			}
		}
	}
	q.size--
	q.takes++
	if q.takes >= 32 && q.takes >= len(q.needs) {
		q.sweep()
	}
}

// sweep drops every need bucket (and, when the tenant index is enabled,
// every tenant bucket) with no live job left.
func (q *jobQueue) sweep() {
	q.takes = 0
	live := q.needs[:0]
	for _, n := range q.needs {
		if q.need[n].peekLive() == nil {
			delete(q.need, n)
		} else {
			live = append(live, n)
		}
	}
	for i := len(live); i < len(q.needs); i++ {
		q.needs[i] = 0
	}
	q.needs = live
	if !q.tenantIdx {
		return
	}
	liveT := q.tenants[:0]
	for _, t := range q.tenants {
		if q.byTenant[t].peekLive() == nil {
			delete(q.byTenant, t)
		} else {
			liveT = append(liveT, t)
		}
	}
	for i := len(liveT); i < len(q.tenants); i++ {
		q.tenants[i] = ""
	}
	q.tenants = liveT
}

// removeNeed drops one bucket from both need-index structures.
func (q *jobQueue) removeNeed(n int) {
	delete(q.need, n)
	i := sort.SearchInts(q.needs, n)
	if i < len(q.needs) && q.needs[i] == n {
		q.needs = append(q.needs[:i], q.needs[i+1:]...)
	}
}

// bestFit returns the best-ranked queued job needing at most free
// processors, or nil. Backfill order matches the linear scan: among all
// fitting jobs, the one earliest in head order starts first. Buckets found
// empty are pruned on the way.
func (q *jobQueue) bestFit(free int) *Job {
	var best *Job
	dead := q.deadNeeds[:0]
	for _, n := range q.needs {
		if n > free {
			break
		}
		top := q.need[n].peekLive()
		if top == nil {
			dead = append(dead, n)
			continue
		}
		if best == nil || jobLess(top, best) {
			best = top
		}
	}
	for _, n := range dead {
		q.removeNeed(n)
	}
	q.deadNeeds = dead[:0]
	return best
}

// window appends the first k queued jobs in head order to dst. The priority
// lists hold live jobs only (take unlinks eagerly), so the walk is O(k)
// with zero allocations regardless of queue length or churn history.
func (q *jobQueue) window(dst []*Job, k int) []*Job {
	for _, p := range q.prios {
		for j := q.prio[p].head; j != nil; j = j.qnext {
			if k <= 0 {
				return dst
			}
			dst = append(dst, j)
			k--
		}
	}
	return dst
}

// jobHeap is a binary min-heap of queued jobs under jobLess with lazy
// deletion: entries whose State left Queued are discarded as they surface.
type jobHeap struct {
	h []*Job
}

func (p *jobHeap) push(j *Job) {
	p.h = append(p.h, j)
	i := len(p.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !jobLess(p.h[i], p.h[parent]) {
			break
		}
		p.h[i], p.h[parent] = p.h[parent], p.h[i]
		i = parent
	}
}

// peekLive discards stale entries and returns the live top, or nil.
func (p *jobHeap) peekLive() *Job {
	for len(p.h) > 0 {
		if p.h[0].State == Queued {
			return p.h[0]
		}
		p.pop()
	}
	return nil
}

func (p *jobHeap) pop() *Job {
	top := p.h[0]
	n := len(p.h) - 1
	p.h[0] = p.h[n]
	p.h[n] = nil
	p.h = p.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && jobLess(p.h[l], p.h[min]) {
			min = l
		}
		if r < n && jobLess(p.h[r], p.h[min]) {
			min = r
		}
		if min == i {
			break
		}
		p.h[i], p.h[min] = p.h[min], p.h[i]
		i = min
	}
	return top
}
