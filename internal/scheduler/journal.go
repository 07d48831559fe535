package scheduler

import (
	"fmt"

	"repro/internal/grid"
)

// This file is the scheduler's journaling choke point. Every externally
// driven state mutation enters the Core through exactly five methods —
// Submit, Contact, ResizeComplete, Finish, Fail — and each of them emits
// one Op record through the installed JournalFunc *after* validation but
// *before* any state changes (write-ahead ordering). Because the Core is a
// deterministic state machine (PR 1), replaying a journal of Ops into a
// fresh Core reconstructs the original state bit for bit; package
// internal/durability persists the records and drives the replay.

// OpKind enumerates the journaled event-engine inputs.
type OpKind uint8

const (
	// OpSubmit is a job arrival (Core.Submit).
	OpSubmit OpKind = 1 + iota
	// OpContact is a resize-point contact (Core.Contact), carrying the
	// reported iteration and redistribution times.
	OpContact
	// OpResizeComplete confirms a granted resize (Core.ResizeComplete).
	OpResizeComplete
	// OpFinish is the System Monitor's job-end signal (Core.Finish).
	OpFinish
	// OpFail is the job-error/cancel signal (Core.Fail).
	OpFail
	// OpRebalance is a global-rebalancer planning tick (Core.Rebalance).
	// Only the tick's timestamp is journaled: the adopted plan is a pure
	// function of the core state and the (re-installed) arbiter
	// configuration, so replaying the tick recomputes the identical plan —
	// the same argument that lets Contact journal inputs, not decisions.
	OpRebalance
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpSubmit:
		return "submit"
	case OpContact:
		return "contact"
	case OpResizeComplete:
		return "resize-complete"
	case OpFinish:
		return "finish"
	case OpFail:
		return "fail"
	case OpRebalance:
		return "rebalance"
	default:
		return "unknown"
	}
}

// Op is one journaled scheduler input: the method, its timestamp, and the
// arguments that method needs to re-execute. Priority and every other
// scheduling input ride inside Spec for OpSubmit; the remaining kinds are
// identified by JobID.
type Op struct {
	Kind OpKind
	Now  float64

	JobID int // all kinds except OpSubmit

	Spec JobSpec // OpSubmit

	Topo       grid.Topology // OpContact: the topology the job reports
	IterTime   float64       // OpContact
	RedistTime float64       // OpContact, OpResizeComplete
}

// JournalFunc persists one validated Op before it is applied. A non-nil
// error refuses the operation: the Core returns the error to the caller
// without mutating any state, so an acknowledged operation is always
// durable.
type JournalFunc func(Op) error

// CommitFunc is the commit barrier that goes with a JournalFunc whose
// records reach stable storage after the hook returns: it blocks until every
// op journaled before the call is durable. The Core never calls it — a Core
// is single-threaded and waiting inside it would serialize every op behind
// its own disk flush. Its caller does, without holding whatever lock guards
// the Core, and before it acknowledges the op or shows anyone its effects
// (see Server, whose committer is the caller). A non-nil error means durability is lost for good: the ops
// already applied in memory may not be on disk, so the caller must stop
// acknowledging and let a restart recover from what is.
type CommitFunc func() error

// SetCommit installs the commit barrier (nil, the default, means the journal
// hook itself makes each op durable before it returns).
func (c *Core) SetCommit(fn CommitFunc) { c.commit = fn }

// SetJournal installs the write-ahead journal hook (nil disables
// journaling). Install it only after any recovery replay has finished, or
// replayed operations would be appended to the journal a second time.
func (c *Core) SetJournal(fn JournalFunc) { c.journal = fn }

// journalOp emits one validated op through the installed hook.
func (c *Core) journalOp(op *Op) error {
	if c.journal == nil {
		return nil
	}
	if err := c.journal(*op); err != nil {
		return fmt.Errorf("scheduler: journal refused %s: %w", op.Kind, err)
	}
	return nil
}

// Apply re-executes one journaled op against the core — the recovery
// replay path. The journal hook must not be installed while replaying.
// Replayed ops were validated before they were journaled, so an error here
// means the journal does not match the state it is being replayed into.
func (c *Core) Apply(op Op) error {
	_, _, _, err := c.apply(&op, false)
	return err
}

// apply runs one op, live from a Server or replayed by Apply, and returns
// the job it concerns (a submit's new job), a contact's decision and the
// jobs the op started; live is resizeComplete's.
func (c *Core) apply(op *Op, live bool) (jobID int, d Decision, started []*Job, err error) {
	jobID = op.JobID
	switch op.Kind {
	case OpSubmit:
		var j *Job
		if j, started, err = c.Submit(op.Spec, op.Now); err == nil {
			jobID = j.ID
		}
	case OpContact:
		d, err = c.Contact(op.JobID, op.Topo, op.IterTime, op.RedistTime, op.Now)
	case OpResizeComplete:
		started, err = c.resizeComplete(op.JobID, op.RedistTime, op.Now, live)
	case OpFinish:
		started, err = c.Finish(op.JobID, op.Now)
	case OpFail:
		started, err = c.Fail(op.JobID, op.Now)
	case OpRebalance:
		err = c.Rebalance(op.Now)
	default:
		err = fmt.Errorf("scheduler: unknown op kind %d", op.Kind)
	}
	return jobID, d, started, err
}

// Rebalance is the global rebalancer's planning tick: when the installed
// arbiter is a Planner, the tick is journaled (write-ahead, like every
// other input) and the planner recomputes its cluster-wide plan from a
// caller-less snapshot. With no planner installed the tick is a no-op and
// nothing is journaled — the arbiter is configuration, and a recovering
// process installs the same one before replay, so the skip replays
// identically too.
//
// The resulting plan lives inside the arbiter, not the core: directives
// are delivered through the ordinary Contact path at each job's next
// resize point, so Rebalance itself mutates no journaled state.
func (c *Core) Rebalance(now float64) error {
	pl, ok := c.arb.(Planner)
	if !ok {
		return nil
	}
	if err := c.journalOp(&Op{Kind: OpRebalance, Now: now}); err != nil {
		return err
	}
	var snap ClusterSnapshot
	c.snapshot(&snap, nil, now)
	pl.Rebalance(snap)
	return nil
}
