package scheduler

import (
	"cmp"
	"slices"
)

// jobQueue is the wait queue. Three directories (see dir) file every queued
// job:
//
//   - prio maps a priority to the FIFO list of its jobs. The top key's list
//     holds the FCFS head, and walking the keys down yields head order.
//   - need maps a processor need to a heap of its jobs, so backfill looks
//     only at the needs that fit the idle pool. Distinct needs are few (one
//     per chain start configuration) even when 10⁵ jobs wait.
//   - tenant maps Spec.Tenant to a heap of its jobs, the per-tenant heads a
//     fair-share StartPicker chooses among. It costs a heap push per submit
//     and stays empty until enableTenantIndex, as the running set's id
//     indexes and change log stay empty until an arbiter asks: sim-fcfs,
//     whose arbiter never does, would otherwise pay for all of them (the id
//     indexes alone took 7–9 % of its CPU; see runningSet).
//
// A heap entry carries its job's order key (Spec.Priority and ID, neither
// written after submit) beside the *Job, so sifting compares keys in the
// heap's own array and dereferences no job; only the lazy-deletion check
// on the top entry reads Job.State.
//
// take unlinks a job from its priority list at once, so head and window never
// see a consumed job. The heaps drop consumed jobs lazily, and prune removes
// the buckets that leaves empty: bestFit and tenantHeads prune what they
// visit, and every max(32, len(need)) takes prune both heap directories
// whole, so a churning daemon's index tracks the needs still waiting, not
// history. A pruned heap's array goes to a short spare list that the next
// new bucket takes, so a key that comes back does not regrow its heap.
//
// version increments on every push and take; Core keys its queued-window
// caches on it.
type jobQueue struct {
	prio      dir[int, prioList]
	need      dir[int, jobHeap]
	tenant    dir[string, jobHeap]
	tenantIdx bool
	spare     spareHeaps
	size      int    // live queued jobs
	takes     int    // takes since the last whole prune
	version   uint64 // bumped on every push and take
}

// dir is a directory of buckets in ascending key order: vals[i] is filed
// under keys[i]. It bisects instead of hashing because every directory in
// this package holds few live keys and is walked in key order.
type dir[K cmp.Ordered, B any] struct {
	keys []K
	vals []B
}

// at returns where k sits, or belongs, and whether it is there.
func (d *dir[K, B]) at(k K) (int, bool) { return slices.BinarySearch(d.keys, k) }

// get returns k's bucket, filing an empty one first if k has none. The
// pointer is good until the directory next gains or loses a key.
func (d *dir[K, B]) get(k K) *B {
	i, ok := d.at(k)
	if !ok {
		var empty B
		d.keys = slices.Insert(d.keys, i, k)
		d.vals = slices.Insert(d.vals, i, empty)
	}
	return &d.vals[i]
}

// del drops the buckets at positions [i, j).
func (d *dir[K, B]) del(i, j int) {
	d.keys = slices.Delete(d.keys, i, j)
	d.vals = slices.Delete(d.vals, i, j)
}

// prune drops the heaps with no live job from the first n buckets of d,
// keeping their arrays in spare, and returns how many of those n are left:
// each of d.vals[:left] has its live top at h[0].
func prune[K cmp.Ordered](d *dir[K, jobHeap], n int, spare *spareHeaps) (left int) {
	for i := range n {
		if d.vals[i].peekLive() == nil {
			spare.put(d.vals[i].h)
			continue
		}
		if left < i {
			d.keys[left], d.vals[left] = d.keys[i], d.vals[i]
		}
		left++
	}
	d.del(left, n)
	return left
}

// maxSpareHeaps bounds the arrays spareHeaps keeps. A fixed array holds
// them, so keeping one never allocates.
const maxSpareHeaps = 8

// spareHeaps holds the emptied arrays of pruned heaps for reuse.
type spareHeaps struct {
	h [maxSpareHeaps][]heapEntry
	n int
}

// put keeps h's array if there is room; prune has emptied it, and pop
// zeroes every slot it vacates, so the array holds no job.
func (s *spareHeaps) put(h []heapEntry) {
	if s.n < maxSpareHeaps {
		s.h[s.n] = h[:0]
		s.n++
	}
}

// get hands out a kept array, or nil if none is left.
func (s *spareHeaps) get() []heapEntry {
	if s.n == 0 {
		return nil
	}
	s.n--
	h := s.h[s.n]
	s.h[s.n] = nil
	return h
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

// push enqueues a job into every index.
func (q *jobQueue) push(j *Job) {
	q.version++
	q.size++
	q.prio.get(j.Spec.Priority).insert(j)
	q.file(q.need.get(j.Spec.InitialTopo.Count()), j)
	if q.tenantIdx {
		q.file(q.tenant.get(j.Spec.Tenant), j)
	}
}

// file pushes j onto heap b, giving a new bucket a spare array first.
func (q *jobQueue) file(b *jobHeap, j *Job) {
	if b.h == nil {
		b.h = q.spare.get()
	}
	b.push(j)
}

// enableTenantIndex turns the tenant index on, filing every job already
// queued (recovery may install the arbiter on a core restored with a
// populated queue). Idempotent. A heap's pop order under its unique keys
// does not depend on insertion order, so the index is deterministic.
func (q *jobQueue) enableTenantIndex() {
	if q.tenantIdx {
		return
	}
	q.tenantIdx = true
	for _, j := range q.window(nil, q.size) {
		q.file(q.tenant.get(j.Spec.Tenant), j)
	}
}

// tenantHeads appends each tenant's queue head to dst in ascending tenant
// order, pruning the tenant buckets it finds empty.
func (q *jobQueue) tenantHeads(dst []*Job) []*Job {
	for _, b := range q.tenant.vals[:prune(&q.tenant, len(q.tenant.keys), &q.spare)] {
		dst = append(dst, b.h[0].job)
	}
	return dst
}

// len returns the number of live queued jobs.
func (q *jobQueue) len() int { return q.size }

// head returns the next job in FCFS order without removing it.
func (q *jobQueue) head() *Job {
	if n := len(q.prio.vals); n > 0 {
		return q.prio.vals[n-1].head
	}
	return nil
}

// take marks the job consumed. The caller has moved it out of Queued, so the
// heaps drop it when it surfaces; its priority list unlinks it now. Every
// max(32, len(need)) takes both heap directories are pruned whole, amortized
// O(1) per take.
func (q *jobQueue) take(j *Job) {
	q.version++
	q.size--
	if i, ok := q.prio.at(j.Spec.Priority); ok {
		l := &q.prio.vals[i]
		l.remove(j)
		if l.head == nil {
			q.prio.del(i, i+1)
		}
	}
	if q.takes++; q.takes >= 32 && q.takes >= len(q.need.keys) {
		q.takes = 0
		prune(&q.need, len(q.need.keys), &q.spare)
		prune(&q.tenant, len(q.tenant.keys), &q.spare)
	}
}

// bestFit returns the best-ranked queued job needing at most free
// processors, or nil: among all fitting jobs, the earliest in head order
// (TestBackfillMatchesLinearScan). It prunes the need buckets it visits.
func (q *jobQueue) bestFit(free int) *Job {
	fit, _ := q.need.at(free + 1) // needs ≤ free
	var best *heapEntry
	for i := range q.need.vals[:prune(&q.need, fit, &q.spare)] {
		if top := &q.need.vals[i].h[0]; best == nil || top.before(best) {
			best = top
		}
	}
	if best == nil {
		return nil
	}
	return best.job
}

// window appends the first k queued jobs in head order to dst: O(k), since
// the priority lists hold live jobs only.
func (q *jobQueue) window(dst []*Job, k int) []*Job {
	for i := len(q.prio.vals) - 1; i >= 0; i-- {
		for j := q.prio.vals[i].head; j != nil; j = j.qnext {
			if k <= 0 {
				return dst
			}
			dst = append(dst, j)
			k--
		}
	}
	return dst
}

// heapEntry is one job in a jobHeap with its order key copied beside it.
type heapEntry struct {
	prio, id int
	job      *Job
}

// before is the queue's total order: higher priority first, then earlier
// submission (lower id). Keys are unique, since ids are.
func (a *heapEntry) before(b *heapEntry) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.id < b.id
}

// jobHeap is a binary min-heap of queued jobs in heapEntry order with lazy
// deletion: entries whose job left Queued are discarded as they surface.
type jobHeap struct {
	h []heapEntry
}

func (p *jobHeap) push(j *Job) {
	p.h = append(p.h, heapEntry{})
	p.siftUp(len(p.h)-1, heapEntry{prio: j.Spec.Priority, id: j.ID, job: j})
}

// peekLive discards stale entries and returns the live top, or nil.
func (p *jobHeap) peekLive() *Job {
	for len(p.h) > 0 {
		if j := p.h[0].job; j.State == Queued {
			return j
		}
		p.pop()
	}
	return nil
}

// pop removes the top entry by Floyd's bottom-up sift: the hole left at
// the root moves down the smaller child to a leaf, one comparison a level,
// and the last entry sifts up from there. It is rarely far from a leaf, so
// this compares about half as often as sifting it down from the root.
func (p *jobHeap) pop() {
	n := len(p.h) - 1
	last := p.h[n]
	p.h[n] = heapEntry{}
	h := p.h[:n]
	p.h = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
	p.siftUp(i, last)
}

// siftUp files e at the hole i, moving the hole up past every parent e
// sorts ahead of.
func (p *jobHeap) siftUp(i int, e heapEntry) {
	h := p.h
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}
