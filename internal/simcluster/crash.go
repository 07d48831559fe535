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

// drain runs the event loop to completion, interposing scheduled
// crash/restarts when the virtual clock reaches them. Dispatch is
// tick-batched (Engine.StepTick): all events sharing a timestamp are popped
// and handled in one pass, in the same (time, insertion) order a
// Step-per-event loop would use. Checking the crash predicate once per tick
// instead of once per event is equivalent, because every event in a tick
// carries the same timestamp t and the predicate t >= at is constant across
// them — a crash can only ever land on a tick boundary, the simulation's
// observable instants.
func (s *Sim) drain() error {
	sort.SliceStable(s.crashes, func(i, j int) bool { return s.crashes[i].at < s.crashes[j].at })
	for {
		t, ok := s.eng.PeekTime()
		if !ok {
			return nil
		}
		for len(s.crashes) > 0 && t >= s.crashes[0].at {
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
		if _, err := s.eng.StepTick(); err != nil {
			return err
		}
	}
}
