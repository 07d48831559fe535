package reshape

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/resize"
)

// Report is what Run returns once every rank has finished: rank 0's view
// of the completed execution.
type Report struct {
	// Records is the iteration log: one entry per outer iteration with the
	// topology it ran on and the grid-averaged time.
	Records []resize.IterationRecord
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
		s, err := resize.NewSession(cfg.client, cfg.jobID, c, cfg.topo, r.worker())
		if err != nil {
			return fmt.Errorf("reshape: session: %w", err)
		}
		rc := &Context{s: s}
		if err := app.Init(rc); err != nil {
			return fmt.Errorf("reshape: init: %w", err)
		}
		if c.Rank() == 0 {
			r.emit(Event{Kind: EventInit, Topo: s.Topo()})
		}
		if err := r.loop(rc); err != nil {
			return err
		}
		// Original rank 0 survives every expansion (parents precede
		// children in the merged communicator) and every shrink (survivor
		// prefix), so its session holds the authoritative record.
		if s.Comm().Rank() == 0 {
			mu.Lock()
			rep = report(s, rc.resizes)
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

// report snapshots rank 0's session into a Report. resizes is the
// topology-change count rank 0's loop witnessed — it cannot be derived
// from the redistribution observations, which stay empty for applications
// with no registered arrays.
func report(s *resize.Session, resizes int) *Report {
	rep := &Report{
		Records:            append([]resize.IterationRecord{}, s.LogRecords()...),
		Iterations:         s.Iter(),
		FinalTopo:          s.Topo(),
		Resizes:            resizes,
		Replicated:         map[string][]float64{},
		RedistObservations: append([]perfmodel.RedistObservation{}, s.RedistObservations()...),
	}
	for _, name := range s.ReplicatedNames() {
		v := s.Replicated(name)
		cp := make([]float64, len(v))
		copy(cp, v)
		rep.Replicated[name] = cp
	}
	return rep
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

// worker is the entry point for ranks spawned by an expansion: give the
// app its OnResize(Joined) notification and join the iteration loop.
func (r *runner) worker() resize.Worker {
	return func(s *resize.Session) error {
		rc := &Context{s: s}
		if h, ok := r.app.(ResizeHandler); ok {
			ev := ResizeEvent{Kind: Joined, To: s.Topo(), Iter: s.Iter()}
			if err := h.OnResize(rc, ev); err != nil {
				return fmt.Errorf("reshape: on-resize (joined): %w", err)
			}
		}
		return r.loop(rc)
	}
}

// cancelled collectively agrees on ctx cancellation: rank 0 observes the
// context and broadcasts the verdict so every rank leaves the loop at the
// same iteration boundary (a rank returning alone would strand the others
// in collectives). Skipped entirely for non-cancellable contexts.
func (r *runner) cancelled(s *resize.Session) bool {
	if r.ctx.Done() == nil {
		return false
	}
	flag := 0
	if s.Comm().Rank() == 0 && r.ctx.Err() != nil {
		flag = 1
	}
	return s.Comm().BcastInt(0, flag) != 0
}

// loop is the canonical outer loop of a ReSHAPE application — the code
// every pre-SDK app duplicated in its worker closure.
func (r *runner) loop(rc *Context) error {
	s := rc.s
	h, isResizeHandler := r.app.(ResizeHandler)
	for s.Iter() < r.cfg.maxIter {
		if r.cancelled(s) {
			return r.ctx.Err()
		}
		t0 := r.cfg.now()
		if err := r.app.Iterate(rc); err != nil {
			return fmt.Errorf("reshape: iterate %d: %w", s.Iter(), err)
		}
		elapsed := r.cfg.now().Sub(t0).Seconds()
		avg := s.Log(elapsed)
		if s.Comm().Rank() == 0 {
			// The iteration just finished but the session counter advances
			// only at the resize point / Advance, so +1 keeps every event
			// kind on the same completed-iteration convention.
			r.emit(Event{Kind: EventIterate, Iter: s.Iter() + 1, Topo: s.Topo(), Seconds: avg})
		}

		if (s.Iter()+1)%r.cfg.resizeEvery != 0 {
			// Not a resize point: count the iteration and keep going.
			s.Advance()
			continue
		}
		prev := s.Topo()
		// Log already allreduced the iteration time; reuse its average
		// instead of paying Resize's second cluster-wide reduction.
		status, err := s.ResizeAveraged(avg)
		if err != nil {
			return fmt.Errorf("reshape: resize point: %w", err)
		}
		if status == resize.Retired {
			r.emit(Event{Kind: EventRetire, Iter: s.Iter(), Topo: prev, Rank: s.Comm().Rank()})
			return nil
		}
		if cur := s.Topo(); cur != prev {
			rc.resizes++
			kind := Expanded
			if cur.Count() < prev.Count() {
				kind = Shrunk
			}
			if isResizeHandler {
				ev := ResizeEvent{Kind: kind, From: prev, To: cur, Seconds: s.LastRedist(), Iter: s.Iter()}
				if err := h.OnResize(rc, ev); err != nil {
					return fmt.Errorf("reshape: on-resize: %w", err)
				}
			}
			if s.Comm().Rank() == 0 {
				r.emit(Event{Kind: EventResize, Iter: s.Iter(), From: prev, Topo: cur, Seconds: s.LastRedist()})
			}
		}
	}
	if s.Comm().Rank() == 0 {
		r.emit(Event{Kind: EventDone, Iter: s.Iter(), Topo: s.Topo()})
	}
	return s.Done()
}
