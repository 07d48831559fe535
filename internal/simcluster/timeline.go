package simcluster

// evKind enumerates the simulator's timestamped events.
type evKind uint8

const (
	// evArrival is a job submission; its job field indexes Sim.pending,
	// since the job has no scheduler id yet.
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

// at schedules an event at virtual time t. A time before the clock is
// delivered at the clock: time never runs backwards.
func (q *timeline) at(t float64, kind evKind, job int) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	q.h = append(q.h, event{time: t, seq: q.seq, job: job, kind: kind})
	q.up(len(q.h) - 1)
}

// pop removes the earliest event and advances the clock to it.
func (q *timeline) pop() (event, bool) {
	if len(q.h) == 0 {
		return event{}, false
	}
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	q.now = top.time
	return top, true
}

// before reports whether event i sorts ahead of event j.
func (q *timeline) before(i, j int) bool {
	if q.h[i].time != q.h[j].time {
		return q.h[i].time < q.h[j].time
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *timeline) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *timeline) down(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.before(l, min) {
			min = l
		}
		if r < n && q.before(r, min) {
			min = r
		}
		if min == i {
			return
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
}
