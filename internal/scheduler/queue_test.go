package scheduler

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/grid"
)

func queuedJob(id, need int) *Job {
	return &Job{
		ID:    id,
		State: Queued,
		Spec:  JobSpec{InitialTopo: grid.Topology{Rows: 1, Cols: need}},
	}
}

// jobLess is the queue's total order read off the jobs themselves, the
// reference heapEntry.before must agree with: higher priority first, then
// earlier submission (lower id).
func jobLess(a, b *Job) bool {
	if a.Spec.Priority != b.Spec.Priority {
		return a.Spec.Priority > b.Spec.Priority
	}
	return a.ID < b.ID
}

// buckets reports how many need and tenant buckets the queue files.
func buckets(q *jobQueue) (need, tenant int) {
	if len(q.need.keys) != len(q.need.vals) || len(q.tenant.keys) != len(q.tenant.vals) {
		panic("directory keys and buckets out of step")
	}
	return len(q.need.keys), len(q.tenant.keys)
}

// tenantQueue is an empty queue with the tenant index on or off.
func tenantQueue(indexed bool) *jobQueue {
	q := &jobQueue{}
	if indexed {
		q.enableTenantIndex()
	}
	return q
}

// TestQueuePrunesDrainedNeedBuckets is the regression test for the
// unbounded-index bug: a long-running daemon draining jobs with many
// distinct processor needs or tenants must not keep a dead bucket (and a
// key bestFit or tenantHeads rescans) per need or tenant forever.
func TestQueuePrunesDrainedNeedBuckets(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		q := tenantQueue(indexed)
		const n = 500
		jobs := make([]*Job, n)
		for i := range jobs {
			jobs[i] = queuedJob(i, i+1)
			jobs[i].Spec.Tenant = fmt.Sprint("t", i)
			q.push(jobs[i])
		}
		wantT := 0
		if indexed {
			wantT = n
		}
		if need, tenant := buckets(q); need != n || tenant != wantT {
			t.Fatalf("tenant index %v: %d need / %d tenant buckets after %d distinct pushes", indexed, need, tenant, n)
		}
		for _, j := range jobs {
			j.State = Running
			q.take(j)
		}
		if q.len() != 0 {
			t.Fatalf("tenant index %v: queue reports %d live jobs after drain", indexed, q.len())
		}
		if need, tenant := buckets(q); need != 0 || tenant != 0 {
			t.Errorf("tenant index %v: %d need / %d tenant buckets retained after full drain", indexed, need, tenant)
		}
	}
}

// TestQueueIndexBoundedUnderChurn models the daemon workload: every round
// submits jobs with fresh, never-repeated needs and tenants and drains them.
// The index must stay proportional to what is in flight, not to history.
func TestQueueIndexBoundedUnderChurn(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		q := tenantQueue(indexed)
		id := 0
		for round := 0; round < 50; round++ {
			batch := make([]*Job, 100)
			for i := range batch {
				id++
				batch[i] = queuedJob(id, round*1000+i+1)
				batch[i].Spec.Tenant = fmt.Sprint("t", id)
				q.push(batch[i])
			}
			for _, j := range batch {
				j.State = Running
				q.take(j)
			}
			if need, tenant := buckets(q); need > 150 || tenant > 150 {
				t.Fatalf("tenant index %v round %d: index grew to %d need / %d tenant buckets", indexed, round, need, tenant)
			}
		}
	}
}

// TestBestFitPrunesDeadBuckets checks the eager path: backfill scans and
// tenant-head scans must drop buckets they find empty instead of rescanning
// them on every pass, and a pruned key must be usable again.
func TestBestFitPrunesDeadBuckets(t *testing.T) {
	q := tenantQueue(true)
	jobs := make([]*Job, 10)
	for i := range jobs {
		jobs[i] = queuedJob(i, i+1)
		jobs[i].Spec.Tenant = fmt.Sprint("t", i)
		q.push(jobs[i])
	}
	// All but the need-10 job start through the head index (lazy removal:
	// their bucket entries go stale without take's sweep noticing yet).
	for _, j := range jobs[:9] {
		j.State = Running
	}
	best := q.bestFit(20)
	if best != jobs[9] {
		t.Fatalf("bestFit returned %v, want the need-10 job", best)
	}
	if need, _ := buckets(q); need != 1 {
		t.Errorf("bestFit left %d need buckets, want 1", need)
	}
	if heads := q.tenantHeads(nil); len(heads) != 1 || heads[0] != jobs[9] {
		t.Fatalf("tenantHeads returned %v, want the need-10 job alone", heads)
	}
	if _, tenant := buckets(q); tenant != 1 {
		t.Errorf("tenantHeads left %d tenant buckets, want 1", tenant)
	}
	// A pruned need and tenant must be usable again.
	j := queuedJob(100, 3)
	j.Spec.Tenant = "t3"
	q.push(j)
	if got := q.bestFit(5); got != j {
		t.Errorf("re-pushed need not found: got %v", got)
	}
	if heads := q.tenantHeads(nil); len(heads) != 2 || heads[0] != j {
		t.Errorf("re-pushed tenant not found: heads %v", heads)
	}
}

// TestQueueScansAllocateNothing pins the pruning walks allocation-free
// while they drop dead buckets: bestFit and tenantHeads over buckets whose
// jobs started through the head index, and the whole prune every 32 takes.
func TestQueueScansAllocateNothing(t *testing.T) {
	const n = 128
	heads := make([]*Job, 0, n)
	for _, c := range []struct {
		name  string
		group int  // jobs per need and per tenant
		take  bool // whether started jobs are also taken
		scan  func(*jobQueue)
		left  func(*jobQueue) int // buckets in the directory the scan prunes
	}{
		{"bestFit", 1, false, func(q *jobQueue) { q.bestFit(n) }, func(q *jobQueue) int { return len(q.need.keys) }},
		{"tenantHeads", 1, false, func(q *jobQueue) { heads = q.tenantHeads(heads[:0]) }, func(q *jobQueue) int { return len(q.tenant.keys) }},
		{"take", 8, true, func(*jobQueue) {}, func(q *jobQueue) int { need, tenant := buckets(q); return max(need, tenant) }},
	} {
		q := tenantQueue(true)
		jobs := make([]*Job, n)
		for i := range jobs {
			jobs[i] = queuedJob(i, 1+i/c.group)
			jobs[i].Spec.Tenant = fmt.Sprint("t", i/c.group)
			q.push(jobs[i])
		}
		next := 0
		allocs := testing.AllocsPerRun(24, func() {
			for _, j := range jobs[next : next+4] {
				j.State = Running
				if c.take {
					q.take(j)
				}
			}
			next += 4
			c.scan(q)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per round, want 0", c.name, allocs)
		}
		if left := c.left(q); left >= n/c.group {
			t.Errorf("%s: %d of %d buckets left after %d jobs started: nothing was pruned", c.name, left, n/c.group, next)
		}
	}
}

// TestPublishedContactAllocatesNothing pins both ways to the published
// policy's input at zero allocations under queue pressure: a Contact on a
// core with no arbiter and a backlog, and RemapInput on a hand-built
// snapshot with a queued window.
func TestPublishedContactAllocatesNothing(t *testing.T) {
	c := NewCore(50, false) // no backfill: the backlog stays queued
	c.DisableTrace()
	submit := func(need int) *Job {
		start := grid.Topology{Rows: 3, Cols: need / 3}
		j, _, err := c.Submit(JobSpec{Name: "lu", App: "lu", ProblemSize: 12000, Iterations: 1 << 30,
			InitialTopo: start, Chain: grid.GrowthChain(start, 12000, 50)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	job := submit(12)
	for i := 0; i < 31; i++ {
		submit(36) // the first fills the pool, the rest wait behind it
	}
	now := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		now++
		if _, err := c.Contact(job.ID, job.Topo, 50, 0, now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Contact with %d jobs queued allocates %.1f times, want 0", c.QueueLen(), allocs)
	}
	if c.QueueLen() != 30 {
		t.Fatalf("%d jobs queued, want 30: the backlog went unexercised", c.QueueLen())
	}

	snap := ClusterSnapshot{Idle: 2, Caller: contactView(job),
		Queued: []QueuedView{{ID: 1, Need: 36}, {ID: 2, Need: 6}}}
	var in RemapInput
	if allocs := testing.AllocsPerRun(100, func() { in = snap.RemapInput() }); allocs != 0 {
		t.Errorf("RemapInput on a hand-built snapshot allocates %.1f times, want 0", allocs)
	}
	if in.HeadNeed != 36 {
		t.Fatalf("HeadNeed %d, want the head's 36", in.HeadNeed)
	}
}

// TestWindowMatchesFullSortReference is the property test pinning the
// queue's head-window traversal (the priority-list walk that replaced the
// bounded-frontier heap walk) against a naive reference: sort every live
// job by the total jobLess order and truncate. Randomized push/take
// interleavings with heavy duplicate-priority ties, every k in 1..64.
func TestWindowMatchesFullSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		var q jobQueue
		var live []*Job
		id := 0
		nOps := 50 + rng.Intn(200)
		for op := 0; op < nOps; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				j := live[i]
				j.State = Running
				q.take(j)
				live = append(live[:i], live[i+1:]...)
			} else {
				j := queuedJob(id, 1+rng.Intn(16))
				j.Spec.Priority = rng.Intn(4) // few levels => many ties
				id++
				q.push(j)
				live = append(live, j)
			}
		}
		ref := append([]*Job{}, live...)
		sort.Slice(ref, func(i, j int) bool { return jobLess(ref[i], ref[j]) })
		for k := 1; k <= 64; k++ {
			got := q.window(nil, k)
			want := ref
			if len(want) > k {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: window has %d jobs, reference %d", trial, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d pos %d: window job %d, reference job %d",
						trial, k, i, got[i].ID, want[i].ID)
				}
			}
		}
		if h := q.head(); len(ref) > 0 && h != ref[0] {
			t.Fatalf("trial %d: head is job %v, reference head %d", trial, h, ref[0].ID)
		} else if len(ref) == 0 && h != nil {
			t.Fatalf("trial %d: head %d on an empty queue", trial, h.ID)
		}
	}
}

// TestBackfillMatchesLinearScan pins backfill against the reference the
// indexed queue replaced: one in-order pass over the full-sort order that
// starts every job that fits what is still idle. Randomized push/take
// interleavings with heavy duplicate-priority ties (and so stale entries in
// the need heaps); for every idle count in 0..64, repeated bestFit + take on
// a fresh replay of the queue must start the same jobs in the same order.
func TestBackfillMatchesLinearScan(t *testing.T) {
	type op struct{ take, need, prio int } // take < 0: push a job of need and prio
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		var ops []op
		for n, live := 50+rng.Intn(200), 0; len(ops) < n; {
			if live > 0 && rng.Intn(3) == 0 {
				ops = append(ops, op{take: rng.Intn(live)})
				live--
			} else {
				ops = append(ops, op{take: -1, need: 1 + rng.Intn(16), prio: rng.Intn(4)})
				live++
			}
		}
		replay := func() (*jobQueue, []*Job) {
			q := &jobQueue{}
			var live []*Job
			for id, o := range ops {
				if o.take >= 0 {
					j := live[o.take]
					j.State = Running
					q.take(j)
					live = append(live[:o.take], live[o.take+1:]...)
					continue
				}
				j := queuedJob(id, o.need)
				j.Spec.Priority = o.prio
				q.push(j)
				live = append(live, j)
			}
			return q, live
		}
		for free := 0; free <= 64; free++ {
			q, live := replay()
			sort.Slice(live, func(i, j int) bool { return jobLess(live[i], live[j]) })
			var want []int
			idle := free
			for _, j := range live {
				if n := j.Spec.InitialTopo.Count(); n <= idle {
					idle -= n
					want = append(want, j.ID)
				}
			}
			var got []int
			idle = free
			for j := q.bestFit(idle); j != nil; j = q.bestFit(idle) {
				j.State = Running
				q.take(j)
				idle -= j.Spec.InitialTopo.Count()
				got = append(got, j.ID)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d free=%d: backfill started %v, the in-order scan %v", trial, free, got, want)
			}
		}
	}
}

// TestBestFitStillMatchesLinearOrder guards the pruning change: among
// fitting jobs the earliest in head order must still win.
func TestBestFitStillMatchesLinearOrder(t *testing.T) {
	var q jobQueue
	lowPrio := queuedJob(1, 2)
	highPrio := queuedJob(2, 4)
	highPrio.Spec.Priority = 5
	q.push(lowPrio)
	q.push(highPrio)
	if got := q.bestFit(4); got != highPrio {
		t.Errorf("bestFit = job %d, want the high-priority job", got.ID)
	}
	if got := q.bestFit(3); got != lowPrio {
		t.Errorf("bestFit under tight fit = job %d, want the small job", got.ID)
	}
}

// TestJobHeapPopsLiveJobsInOrder pushes jobs of a few priorities, lets
// random ones leave Queued behind the heap's back (as a start through
// another index does) and checks that the live top, round after round, is
// the first live job in jobLess order: the heap's copied keys sort as the
// jobs do, and lazy deletion skips exactly the dead entries.
func TestJobHeapPopsLiveJobsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h jobHeap
	var live []*Job
	id := 0
	for round := 0; round < 300; round++ {
		for range rng.Intn(24) {
			j := queuedJob(id, 1)
			j.Spec.Priority = rng.Intn(4) - 1
			id++
			h.push(j)
			live = append(live, j)
		}
		for _, j := range live {
			if rng.Intn(5) == 0 {
				j.State = Running
			}
		}
		live = slices.DeleteFunc(live, func(j *Job) bool { return j.State != Queued })
		sort.Slice(live, func(a, b int) bool { return jobLess(live[a], live[b]) })
		for range rng.Intn(16) {
			top := h.peekLive()
			if len(live) == 0 {
				if top != nil {
					t.Fatalf("round %d: live top %d with no job queued", round, top.ID)
				}
				break
			}
			if top != live[0] {
				t.Fatalf("round %d: live top %v, want job %d (priority %d)", round, top, live[0].ID, live[0].Spec.Priority)
			}
			top.State = Running
			live = live[1:]
		}
	}
}
