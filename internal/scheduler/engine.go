package scheduler

import "fmt"

// Handler processes one event when its timestamp is reached.
type Handler func(ev Event) error

// Engine is the scheduler's event loop: a deterministic virtual clock over
// an EventQueue with per-kind handlers. The cluster simulator registers its
// arrival/resize-point/resize-done handlers and drains the loop with
// StepTick; every state mutation flows through a timestamped event, so
// identical inputs replay to byte-identical schedules.
type Engine struct {
	q        EventQueue
	now      float64
	handlers [numEventKinds]Handler
	// batch is StepTick's reusable dispatch buffer, so draining millions of
	// events costs no per-tick allocation.
	batch []Event
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// PeekTime returns the timestamp of the earliest pending event, if any —
// the hook crash/restart experiments use to interrupt a run at a chosen
// virtual time between event dispatches.
func (e *Engine) PeekTime() (float64, bool) {
	ev, ok := e.q.Peek()
	return ev.Time, ok
}

// Handle registers the handler for an event kind, replacing any previous
// registration.
func (e *Engine) Handle(kind EventKind, h Handler) {
	e.handlers[kind] = h
}

// At schedules an event at absolute virtual time t. Events scheduled in the
// past are delivered at the current clock (time never runs backwards).
func (e *Engine) At(t float64, kind EventKind, job int) {
	if t < e.now {
		t = e.now
	}
	e.q.Push(t, kind, job)
}

// StepTick dispatches every pending event sharing the earliest timestamp —
// one virtual-time tick — in insertion order, popping the whole coalesced
// batch from the heap at once. Events a handler schedules at the current
// timestamp are dispatched by a later StepTick of the same tick (time does
// not advance), after everything already queued at that time, so dispatch
// follows the (time, insertion-seq) order byte for byte. It returns false
// when the queue was empty.
func (e *Engine) StepTick() (bool, error) {
	e.batch = e.q.PopTick(e.batch[:0])
	if len(e.batch) == 0 {
		return false, nil
	}
	e.now = e.batch[0].Time
	for _, ev := range e.batch {
		h := e.handlers[ev.Kind]
		if h == nil {
			return false, fmt.Errorf("scheduler: no handler for %v event", ev.Kind)
		}
		if err := h(ev); err != nil {
			return false, err
		}
	}
	return true, nil
}
