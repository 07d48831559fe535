package simcluster

import (
	"fmt"
	"sort"

	"repro/internal/scheduler"
)

// crashPlan schedules one scheduler kill/restart during a simulation.
type crashPlan struct {
	at      float64
	restart func(old *scheduler.Core) (*scheduler.Core, error)
}

// WithCrashRestart kills the scheduler at virtual time at — between event
// dispatches, the only observable instants of the simulation — and replaces
// it with whatever restart returns, typically a core recovered from a
// durability WAL. The simulated applications (iteration state, in-flight
// resize points) live outside the scheduler and survive the crash, exactly
// as real jobs outlive a reshaped daemon restart and reconnect. May be
// called several times for repeated crashes.
//
//lint:allow testonly seam: TestCrashRestartMatchesBaseline and TestCrashRestartFairsharePerTenant crash a simulated run through it
func (s *Sim) WithCrashRestart(at float64, restart func(old *scheduler.Core) (*scheduler.Core, error)) *Sim {
	s.crashes = append(s.crashes, crashPlan{at: at, restart: restart})
	return s
}

// drain runs the event loop to completion, one event at a time in
// (time, insertion) order, interposing scheduled crash/restarts when the
// virtual clock reaches them: a crash lands between two dispatches, the
// simulation's only observable instants.
func (s *Sim) drain() error {
	sort.SliceStable(s.crashes, func(i, j int) bool { return s.crashes[i].at < s.crashes[j].at })
	for {
		e, ok := s.tl.pop()
		if !ok {
			return nil
		}
		for len(s.crashes) > 0 && e.time >= s.crashes[0].at {
			core, err := s.crashes[0].restart(s.core)
			if err != nil {
				return fmt.Errorf("simcluster: restart at t=%.3f: %w", s.crashes[0].at, err)
			}
			if core == nil {
				return fmt.Errorf("simcluster: restart at t=%.3f returned no scheduler", s.crashes[0].at)
			}
			s.core = core
			s.crashes = s.crashes[1:]
		}
		var err error
		switch e.kind {
		case evArrival:
			err = s.handleArrival(e)
		case evResizePoint:
			err = s.handleResizePoint(e)
		case evResizeDone:
			err = s.handleResizeDone(e)
		case evRebalance:
			err = s.handleRebalance(e)
		}
		if err != nil {
			return err
		}
	}
}
