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
//
// pop hands out the root and leaves it in place, held: the job whose
// resize point it was most often schedules its next one at once, and an
// at that comes while the root is held files its event in the root's
// hole, one sift instead of the two a removal and an insertion take.
// Otherwise the next pop or dueBy removes the held root first. (time, seq)
// keys are unique, so where an event sits in the heap cannot change the
// order events come out in.
type timeline struct {
	h    []event
	seq  uint64
	now  float64
	held bool // h[0] is the event pop handed out last, still in place
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
	e := event{time: t, seq: q.seq, job: job, kind: kind}
	if q.held {
		q.held = false
		q.siftUp(q.sink(0, len(q.h)), e)
		return
	}
	q.h = append(q.h, event{})
	q.siftUp(len(q.h)-1, e)
}

// pop hands out the earliest event, leaving it held at the root, and
// advances the clock to it.
func (q *timeline) pop() (event, bool) {
	if q.held {
		q.drop()
	}
	if len(q.h) == 0 {
		return event{}, false
	}
	q.held = true
	q.now = q.h[0].time
	return q.h[0], true
}

// dueBy reports whether time t comes no later than every queued event.
func (q *timeline) dueBy(t float64) bool {
	if q.held {
		q.drop()
	}
	return len(q.h) == 0 || t <= q.h[0].time
}

// drop removes the held root. It sifts bottom-up (Floyd): the hole moves
// down to a leaf and the last event sifts up from there. That event came
// from the bottom and rarely climbs far, so this compares about half as
// often as sifting it down from the root.
func (q *timeline) drop() {
	q.held = false
	n := len(q.h) - 1
	last := q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.siftUp(q.sink(0, n), last)
	}
}

// sink moves the hole at i down the earlier child, one comparison a level,
// to a leaf of the heap's first n events, and returns where it ends.
func (q *timeline) sink(i, n int) int {
	h := q.h
	for {
		c := 2*i + 1
		if c >= n {
			return i
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
}

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
