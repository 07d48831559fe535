package simcluster

// evKind enumerates the simulator's timestamped events.
type evKind uint8

const (
	// evArrival is a job submission; its job field indexes Sim.arrivals,
	// since the job has no scheduler id yet. Arrivals never enter the
	// heap: Sim.next streams them from the arrival-ordered mix.
	evArrival evKind = iota
	// evResizePoint is a running job reaching the end of an iteration and
	// contacting the Remap Scheduler.
	evResizePoint
	// evResizeDone is the resize library confirming a granted resize.
	evResizeDone
	// evRebalance is a global-rebalancer planning tick (carries no job).
	evRebalance
)

// event is one entry on the timeline.
type event struct {
	time float64
	seq  uint64
	job  int
	kind evKind
}

// timeline is the simulator's virtual clock: a binary heap of events
// ordered by (time, insertion seq), so events sharing a timestamp come
// out in the order they were scheduled and identical inputs replay to
// byte-identical schedules. It is hand-rolled rather than container/heap
// to avoid boxing an interface per push; a run pushes millions of events.
type timeline struct {
	h   []event
	seq uint64
	now float64
}

// before reports whether e sorts ahead of f. (time, seq) keys are unique.
func (e *event) before(f *event) bool {
	if e.time != f.time {
		return e.time < f.time
	}
	return e.seq < f.seq
}

// at schedules an event at virtual time t. A time before the clock is
// delivered at the clock: time never runs backwards.
func (q *timeline) at(t float64, kind evKind, job int) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	q.h = append(q.h, event{})
	q.siftUp(len(q.h)-1, event{time: t, seq: q.seq, job: job, kind: kind})
}

// pop removes the earliest event and advances the clock to it. It sifts
// bottom-up (Floyd): the hole left at the root moves down the earlier
// child to a leaf, one comparison a level, and the last event sifts up
// from there. That event came from the bottom and rarely climbs far, so
// this compares about half as often as sifting it down from the root.
func (q *timeline) pop() (event, bool) {
	n := len(q.h) - 1
	if n < 0 {
		return event{}, false
	}
	top := q.h[0]
	last := q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		h := q.h
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
		q.siftUp(i, last)
	}
	q.now = top.time
	return top, true
}

// dueBy reports whether time t comes no later than every queued event.
func (q *timeline) dueBy(t float64) bool { return len(q.h) == 0 || t <= q.h[0].time }

// siftUp files e at the hole i, moving the hole up past every parent e
// sorts ahead of.
func (q *timeline) siftUp(i int, e event) {
	h := q.h
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
