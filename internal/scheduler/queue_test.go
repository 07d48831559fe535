package scheduler

import (
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

// TestQueuePrunesDrainedNeedBuckets is the regression test for the
// unbounded-index bug: a long-running daemon draining jobs with many
// distinct processor needs must not keep a dead bucket (and a needs-slice
// entry bestFit rescans) per need forever.
func TestQueuePrunesDrainedNeedBuckets(t *testing.T) {
	var q jobQueue
	const n = 500
	jobs := make([]*Job, n)
	for i := range jobs {
		jobs[i] = queuedJob(i, i+1)
		q.push(jobs[i])
	}
	if len(q.need) != n || len(q.needs) != n {
		t.Fatalf("index has %d/%d buckets after %d distinct pushes", len(q.need), len(q.needs), n)
	}
	for _, j := range jobs {
		j.State = Running
		q.take(j)
	}
	if q.len() != 0 {
		t.Fatalf("queue reports %d live jobs after drain", q.len())
	}
	if len(q.need) != 0 || len(q.needs) != 0 {
		t.Errorf("need index retains %d map / %d slice buckets after full drain", len(q.need), len(q.needs))
	}
}

// TestQueueIndexBoundedUnderChurn models the daemon workload: every round
// submits jobs with fresh, never-repeated needs and drains them. The index
// must stay proportional to the in-flight needs, not to history.
func TestQueueIndexBoundedUnderChurn(t *testing.T) {
	var q jobQueue
	id := 0
	for round := 0; round < 50; round++ {
		batch := make([]*Job, 100)
		for i := range batch {
			id++
			batch[i] = queuedJob(id, round*1000+i+1)
			q.push(batch[i])
		}
		for _, j := range batch {
			j.State = Running
			q.take(j)
		}
		if len(q.needs) > 150 {
			t.Fatalf("round %d: index grew to %d buckets", round, len(q.needs))
		}
	}
	if len(q.needs) > 150 || len(q.need) > 150 {
		t.Errorf("index retains %d slice / %d map buckets after churn", len(q.needs), len(q.need))
	}
}

// TestBestFitPrunesDeadBuckets checks the eager path: backfill scans must
// drop buckets they find empty instead of rescanning them on every pass.
func TestBestFitPrunesDeadBuckets(t *testing.T) {
	var q jobQueue
	jobs := make([]*Job, 10)
	for i := range jobs {
		jobs[i] = queuedJob(i, i+1)
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
	if len(q.need) != 1 || len(q.needs) != 1 {
		t.Errorf("bestFit left %d map / %d slice buckets, want 1", len(q.need), len(q.needs))
	}
	// A pruned need must be usable again.
	j := queuedJob(100, 3)
	q.push(j)
	if got := q.bestFit(5); got != j {
		t.Errorf("re-pushed need not found: got %v", got)
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
