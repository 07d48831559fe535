package reshape

import (
	"repro/internal/grid"
)

// App is the lifecycle of a resizable application. Run calls Init exactly
// once per initial rank (register distributed state there), then Iterate
// once per outer iteration on every rank — including ranks spawned by a
// later expansion, which skip Init and join the loop at the current
// iteration count.
//
// The same App value serves all ranks concurrently: methods must be
// goroutine-safe, and rank-local state belongs in the Context (registered
// arrays, replicated buffers), not in App fields.
type App interface {
	// Init registers the application's distributed state and prepares its
	// initial contents. Collective over the initial ranks.
	Init(rc *Context) error
	// Iterate performs one outer iteration. Collective over the current
	// ranks.
	Iterate(rc *Context) error
}

// ResizeHandler is an optional App hook: OnResize runs on every rank after
// a completed topology change, and — with Joined set — on a newly spawned
// rank before its first Iterate. Use it to rebuild rank-local views
// (communicator-derived caches, local index maps) that registered state
// alone cannot restore.
type ResizeHandler interface {
	OnResize(rc *Context, ev ResizeEvent) error
}

// EventKind labels a lifecycle Event.
type EventKind int

const (
	// EventInit: Init completed on the initial ranks.
	EventInit EventKind = iota
	// EventIterate: one outer iteration completed; Seconds holds the
	// grid-averaged iteration time.
	EventIterate
	// EventResize: a topology change completed; From/To hold the old and
	// new grids and Seconds the measured redistribution cost.
	EventResize
	// EventRetire: this rank was shrunk away and is leaving the
	// computation (emitted on the retiring rank).
	EventRetire
	// EventDone: the application finished all iterations.
	EventDone
)

// String returns the kind's lowercase name.
func (k EventKind) String() string {
	switch k {
	case EventInit:
		return "init"
	case EventIterate:
		return "iterate"
	case EventResize:
		return "resize"
	case EventRetire:
		return "retire"
	case EventDone:
		return "done"
	}
	return "unknown"
}

// Event is one typed lifecycle notification delivered to the Logger.
// Every kind carries Iter as the completed-iteration count at emission
// time (EventIterate{Iter: 3} means the third iteration just finished)
// and the current topology; resize events additionally carry the previous
// topology.
type Event struct {
	Kind    EventKind
	Iter    int
	Topo    grid.Topology
	From    grid.Topology // EventResize only: the previous topology
	Seconds float64       // EventIterate: avg iteration time; EventResize: redistribution cost
	Rank    int           // rank that emitted the event
}

// Logger receives lifecycle events. Most events are emitted by rank 0
// only; EventRetire is emitted by each retiring rank, so a Logger must be
// safe for concurrent calls.
type Logger func(Event)

// ResizeKind says how a rank experienced a topology change.
type ResizeKind int

const (
	// Expanded: the processor set grew; this rank was already part of it.
	Expanded ResizeKind = iota
	// Shrunk: the processor set shrank; this rank survived.
	Shrunk
	// Joined: this rank was just spawned by an expansion and is entering
	// the loop (its first OnResize; From is the zero topology because the
	// rank did not exist under the previous one).
	Joined
)

// String returns the kind's lowercase name.
func (k ResizeKind) String() string {
	switch k {
	case Expanded:
		return "expanded"
	case Shrunk:
		return "shrunk"
	case Joined:
		return "joined"
	}
	return "unknown"
}

// ResizeEvent is the argument to the optional OnResize hook.
type ResizeEvent struct {
	Kind     ResizeKind
	From, To grid.Topology
	Seconds  float64 // measured redistribution cost (0 for Joined ranks)
	Iter     int     // completed iterations at the time of the change
}
