package reshape

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// Record is one entry of the iteration log.
type Record struct {
	Iter      int
	Topo      grid.Topology
	AvgTime   float64
	RedistSec float64
}

// Report is what Run returns once every rank has finished: rank 0's view
// of the completed execution.
type Report struct {
	// Records is the iteration log: one entry per outer iteration with the
	// topology it ran on and the grid-averaged time.
	Records []Record
	// Iterations is the number of completed outer iterations.
	Iterations int
	// FinalTopo is the topology the application finished on.
	FinalTopo grid.Topology
	// Resizes counts completed topology changes.
	Resizes int
	// Replicated snapshots rank 0's replicated buffers at completion.
	Replicated map[string][]float64
	// RedistObservations are the measured redistribution costs (rank 0's
	// record), ready for perfmodel calibration.
	RedistObservations []perfmodel.RedistObservation
}

// Run executes app on a fresh set of ranks and blocks until the job —
// including every rank spawned by expansions — has finished. It drives
// the full resizable-application lifecycle the paper describes: Init on
// the initial ranks, then per iteration Iterate → log → resize point,
// where the scheduler may expand the processor set (spawning ranks that
// enter Iterate at the current count), shrink it (retiring ranks), or
// leave it alone. ctx cancellation stops the loop at the next iteration
// boundary on every rank collectively.
//
// The returned Report is rank 0's record of the run. Run returns an error
// if any rank's lifecycle method or the resizing machinery failed.
func Run(ctx context.Context, app App, opts ...Option) (*Report, error) {
	if app == nil {
		return nil, fmt.Errorf("reshape: Run needs an App")
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(cfg)
	}
	if cfg.client == nil {
		return nil, fmt.Errorf("reshape: WithScheduler needs a non-nil client")
	}
	if cfg.topo.Count() <= 0 {
		return nil, fmt.Errorf("reshape: topology %v has no processors", cfg.topo)
	}
	if cfg.maxIter <= 0 {
		return nil, fmt.Errorf("reshape: MaxIterations must be positive, got %d", cfg.maxIter)
	}
	if cfg.resizeEvery <= 0 {
		return nil, fmt.Errorf("reshape: ResizeEvery must be positive, got %d", cfg.resizeEvery)
	}

	r := &runner{app: app, cfg: cfg, ctx: ctx}
	var mu sync.Mutex
	var rep *Report
	err := mpi.Run(cfg.topo.Count(), func(c *mpi.Comm) error {
		rc, err := r.newContext(c, cfg.topo)
		if err != nil {
			return fmt.Errorf("reshape: grid: %w", err)
		}
		if err := app.Init(rc); err != nil {
			return fmt.Errorf("reshape: init: %w", err)
		}
		if c.Rank() == 0 {
			r.emit(Event{Kind: EventInit, Topo: rc.topo})
		}
		if err := r.loop(rc); err != nil {
			return err
		}
		// Original rank 0 survives every expansion (parents precede
		// children in the merged communicator) and every shrink (survivor
		// prefix), so its context holds the authoritative record.
		if rc.comm.Rank() == 0 {
			mu.Lock()
			rep = rc.report()
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, fmt.Errorf("reshape: run finished without a rank-0 report")
	}
	return rep, nil
}

// report snapshots rank 0's context into a Report. Resizes is the
// topology-change count rank 0's loop witnessed — it cannot be derived
// from the redistribution observations, which stay empty for applications
// with no registered arrays.
func (rc *Context) report() *Report {
	return &Report{
		Records:            append([]Record{}, rc.log...),
		Iterations:         rc.iter,
		FinalTopo:          rc.topo,
		Resizes:            rc.resizes,
		Replicated:         copyReplicated(rc.replicated),
		RedistObservations: append([]perfmodel.RedistObservation{}, rc.redistObs...),
	}
}

// runner drives one Run: the shared configuration and the cancellation
// context.
type runner struct {
	app App
	cfg *config
	//lint:allow ctxfirst per-Run closure object: the stored ctx is Run's own argument, shared across rank goroutines for collective cancellation
	ctx context.Context
}

// emit delivers a lifecycle event to the configured logger.
func (r *runner) emit(ev Event) {
	if r.cfg.logger != nil {
		r.cfg.logger(ev)
	}
}

// joined is the entry point for ranks spawned by an expansion: give the
// app its OnResize(Joined) notification and join the iteration loop.
func (r *runner) joined(rc *Context) error {
	if h, ok := r.app.(ResizeHandler); ok {
		ev := ResizeEvent{Kind: Joined, To: rc.topo, Iter: rc.iter}
		if err := h.OnResize(rc, ev); err != nil {
			return fmt.Errorf("reshape: on-resize (joined): %w", err)
		}
	}
	return r.loop(rc)
}

// cancelled collectively agrees on ctx cancellation: rank 0 observes the
// context and broadcasts the verdict so every rank leaves the loop at the
// same iteration boundary (a rank returning alone would strand the others
// in collectives). Skipped entirely for non-cancellable contexts.
func (r *runner) cancelled(comm *mpi.Comm) bool {
	if r.ctx.Done() == nil {
		return false
	}
	flag := 0
	if comm.Rank() == 0 && r.ctx.Err() != nil {
		flag = 1
	}
	return comm.BcastInt(0, flag) != 0
}

// loop is the canonical outer loop of a ReSHAPE application: iterate, log
// the iteration time, and at a resize point continue on a (possibly
// different) processor set or retire.
func (r *runner) loop(rc *Context) error {
	h, isResizeHandler := r.app.(ResizeHandler)
	for rc.iter < r.cfg.maxIter {
		if r.cancelled(rc.comm) {
			return r.ctx.Err()
		}
		t0 := r.cfg.now()
		if err := r.app.Iterate(rc); err != nil {
			return fmt.Errorf("reshape: iterate %d: %w", rc.iter, err)
		}
		elapsed := r.cfg.now().Sub(t0).Seconds()
		avg := rc.logIteration(elapsed)
		rc.iter++
		if rc.comm.Rank() == 0 {
			r.emit(Event{Kind: EventIterate, Iter: rc.iter, Topo: rc.topo, Seconds: avg})
		}
		if rc.iter%r.cfg.resizeEvery != 0 {
			continue // not a resize point
		}
		prev := rc.topo
		// logIteration already allreduced the iteration time; the resize
		// point reuses its average.
		retired, err := rc.resizePoint(avg)
		if err != nil {
			return fmt.Errorf("reshape: resize point: %w", err)
		}
		if retired {
			r.emit(Event{Kind: EventRetire, Iter: rc.iter, Topo: prev, Rank: rc.comm.Rank()})
			return nil
		}
		if cur := rc.topo; cur != prev {
			rc.resizes++
			kind := Expanded
			if cur.Count() < prev.Count() {
				kind = Shrunk
			}
			if isResizeHandler {
				ev := ResizeEvent{Kind: kind, From: prev, To: cur, Seconds: rc.lastRedist, Iter: rc.iter}
				if err := h.OnResize(rc, ev); err != nil {
					return fmt.Errorf("reshape: on-resize: %w", err)
				}
			}
			if rc.comm.Rank() == 0 {
				r.emit(Event{Kind: EventResize, Iter: rc.iter, From: prev, Topo: cur, Seconds: rc.lastRedist})
			}
		}
	}
	if rc.comm.Rank() == 0 {
		r.emit(Event{Kind: EventDone, Iter: rc.iter, Topo: rc.topo})
	}
	return rc.done()
}
