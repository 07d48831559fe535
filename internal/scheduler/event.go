package scheduler

// EventKind enumerates the discrete events the scheduler engine processes.
// The same kinds drive both the virtual-time cluster simulator (package
// simcluster) and event-driven test harnesses, so a single deterministic
// loop covers every execution mode.
type EventKind int

const (
	// EvArrival is a job submission entering the system.
	EvArrival EventKind = iota
	// EvResizePoint is a running job reaching the end of an iteration and
	// contacting the Remap Scheduler.
	EvResizePoint
	// EvResizeDone is the resize library confirming a granted resize.
	EvResizeDone
	// EvCompletion is a job finishing its final iteration.
	EvCompletion
	// EvRebalance is a global-rebalancer planning tick (carries no job).
	EvRebalance

	numEventKinds
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvArrival:
		return "arrival"
	case EvResizePoint:
		return "resize-point"
	case EvResizeDone:
		return "resize-done"
	case EvCompletion:
		return "completion"
	case EvRebalance:
		return "rebalance"
	default:
		return "unknown"
	}
}

// Event is one entry in the scheduler's event loop.
type Event struct {
	Time float64
	Kind EventKind
	// Job carries the event's subject: a scheduler job id, or for EvArrival
	// an engine-user-defined index (the simulator uses the position in its
	// arrival list, since the job has no scheduler id yet).
	Job int
	seq uint64
}

// EventQueue is a deterministic priority queue of events ordered by
// timestamp, with FIFO ordering among events carrying equal timestamps
// (insertion sequence breaks ties). It is a hand-rolled binary heap rather
// than container/heap to avoid interface boxing on the hot path; the
// simulator pushes and pops millions of events per run.
//
// The zero value is ready to use. EventQueue is not safe for concurrent
// use; the Engine that owns it runs single-threaded.
type EventQueue struct {
	h   []Event
	seq uint64
}

// Push schedules an event at time t.
func (q *EventQueue) Push(t float64, kind EventKind, job int) {
	q.seq++
	q.h = append(q.h, Event{Time: t, Kind: kind, Job: job, seq: q.seq})
	q.up(len(q.h) - 1)
}

// Peek returns the earliest event without removing it.
func (q *EventQueue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// Pop removes and returns the earliest event.
func (q *EventQueue) Pop() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	if n > 0 {
		q.down(0)
	}
	return top, true
}

// PopTick removes and appends to dst every pending event sharing the
// earliest timestamp — one virtual-time tick — in insertion order (the heap
// already breaks timestamp ties by insertion sequence). Events pushed while
// the batch is being processed are not included, even at the same
// timestamp: they form a later batch of the same tick, which is exactly the
// order a Pop-per-event loop would dispatch them in.
func (q *EventQueue) PopTick(dst []Event) []Event {
	first, ok := q.Pop()
	if !ok {
		return dst
	}
	dst = append(dst, first)
	for len(q.h) > 0 && q.h[0].Time == first.Time {
		ev, _ := q.Pop()
		dst = append(dst, ev)
	}
	return dst
}

// before reports whether event i sorts ahead of event j.
func (q *EventQueue) before(i, j int) bool {
	if q.h[i].Time != q.h[j].Time {
		return q.h[i].Time < q.h[j].Time
	}
	return q.h[i].seq < q.h[j].seq
}

func (q *EventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *EventQueue) down(i int) {
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
