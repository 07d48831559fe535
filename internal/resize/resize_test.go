package resize

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
)

// Resize averages the iteration time across ranks and resizes through
// ResizeAveraged.
func (s *Session) Resize(iterTime float64) (Status, error) {
	avg := s.comm.AllreduceSum(iterTime) / float64(s.comm.Size())
	return s.ResizeAveraged(avg)
}

func topo(r, c int) grid.Topology { return grid.Topology{Rows: r, Cols: c} }

// fillByGlobal populates an array's local data from global coordinates so
// any rank can verify contents after redistribution.
func fillByGlobal(s *Session, a *Array) {
	l := a.LayoutFor(s.Topo())
	rank := s.Comm().Rank()
	pr, pc := l.Coords(rank)
	rows, cols := l.LocalRows(pr), l.LocalCols(pc)
	a.Data = make([]float64, rows*cols)
	for li := 0; li < rows; li++ {
		for lj := 0; lj < cols; lj++ {
			gi, gj := l.LocalToGlobal(pr, pc, li, lj)
			a.Data[li*cols+lj] = float64(gi*1000 + gj)
		}
	}
}

// verifyByGlobal checks every local element against the global formula.
func verifyByGlobal(s *Session, a *Array) error {
	l := a.LayoutFor(s.Topo())
	rank := s.Comm().Rank()
	pr, pc := l.Coords(rank)
	rows, cols := l.LocalRows(pr), l.LocalCols(pc)
	if len(a.Data) != rows*cols {
		return fmt.Errorf("rank %d: %d floats, want %d", rank, len(a.Data), rows*cols)
	}
	for li := 0; li < rows; li++ {
		for lj := 0; lj < cols; lj++ {
			gi, gj := l.LocalToGlobal(pr, pc, li, lj)
			if a.Data[li*cols+lj] != float64(gi*1000+gj) {
				return fmt.Errorf("rank %d: (%d,%d) = %v", rank, gi, gj, a.Data[li*cols+lj])
			}
		}
	}
	return nil
}

func TestSessionExpandSpawnsAndRedistributes(t *testing.T) {
	client := &ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
	}}
	const totalIters = 3
	var workerRuns sync.Map

	worker := func(s *Session) error {
		for s.Iter() < totalIters {
			a, _ := s.Array("A")
			if err := verifyByGlobal(s, a); err != nil {
				return err
			}
			workerRuns.Store(fmt.Sprintf("%v-%d-%d", s.Topo(), s.Comm().Rank(), s.Iter()), true)
			st, err := s.Resize(0.01)
			if err != nil {
				return err
			}
			if st == Retired {
				return nil
			}
		}
		return s.Done()
	}

	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSession(client, 1, c, topo(1, 2), worker)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2}
		s.RegisterArray(a)
		fillByGlobal(s, a)
		return worker(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	// After the expansion all 4 ranks of the 2x2 grid must have iterated.
	for rank := 0; rank < 4; rank++ {
		key := fmt.Sprintf("%v-%d-%d", topo(2, 2), rank, 1)
		if _, ok := workerRuns.Load(key); !ok {
			t.Errorf("rank %d never iterated on the expanded grid", rank)
		}
	}
	if !client.Ended {
		t.Error("job end never reported")
	}
	if len(client.Completed) != 1 {
		t.Errorf("ResizeComplete calls = %d, want 1", len(client.Completed))
	}
}

func TestSessionShrinkRetiresRanks(t *testing.T) {
	client := &ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionShrink, Target: topo(1, 2)},
	}}
	const totalIters = 3
	var retired sync.Map

	worker := func(s *Session) error {
		for s.Iter() < totalIters {
			a, _ := s.Array("A")
			if err := verifyByGlobal(s, a); err != nil {
				return err
			}
			st, err := s.Resize(0.01)
			if err != nil {
				return err
			}
			if st == Retired {
				retired.Store(s.Comm().Rank(), true)
				return nil
			}
		}
		return s.Done()
	}

	err := mpi.Run(4, func(c *mpi.Comm) error {
		s, err := NewSession(client, 2, c, topo(2, 2), worker)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2}
		s.RegisterArray(a)
		fillByGlobal(s, a)
		return worker(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	retired.Range(func(k, v any) bool { count++; return true })
	if count != 2 {
		t.Errorf("%d ranks retired, want 2", count)
	}
	if !client.Ended {
		t.Error("job end never reported")
	}
}

func TestSessionExpandThenShrinkFigure3aPattern(t *testing.T) {
	// The Figure 3(a) trajectory at miniature scale: grow 2 -> 4 -> 6, then
	// shrink back to 4 after a failed expansion, holding data intact
	// throughout.
	client := &ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
		{Action: scheduler.ActionExpand, Target: topo(2, 3)},
		{Action: scheduler.ActionShrink, Target: topo(2, 2)},
		{Action: scheduler.ActionNone},
	}}
	const totalIters = 5

	worker := func(s *Session) error {
		for s.Iter() < totalIters {
			a, _ := s.Array("A")
			if err := verifyByGlobal(s, a); err != nil {
				return fmt.Errorf("iter %d on %v: %w", s.Iter(), s.Topo(), err)
			}
			st, err := s.Resize(0.01)
			if err != nil {
				return err
			}
			if st == Retired {
				return nil
			}
		}
		if s.Topo() != topo(2, 2) {
			return fmt.Errorf("final topology %v, want 2x2", s.Topo())
		}
		return s.Done()
	}

	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSession(client, 3, c, topo(1, 2), worker)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 12, N: 12, MB: 2, NB: 2}
		s.RegisterArray(a)
		fillByGlobal(s, a)
		return worker(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(client.Completed) != 3 {
		t.Errorf("ResizeComplete calls = %d, want 3", len(client.Completed))
	}
}

func TestSessionMultipleArraysAndReplicated(t *testing.T) {
	client := &ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
	}}
	worker := func(s *Session) error {
		for s.Iter() < 2 {
			for _, name := range []string{"A", "B"} {
				a, ok := s.Array(name)
				if !ok {
					return fmt.Errorf("array %s missing", name)
				}
				if err := verifyByGlobal(s, a); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
			x := s.Replicated("x")
			if len(x) != 3 || x[0] != 7 {
				return fmt.Errorf("replicated x = %v on rank %d", x, s.Comm().Rank())
			}
			st, err := s.Resize(0.01)
			if err != nil {
				return err
			}
			if st == Retired {
				return nil
			}
		}
		return s.Done()
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSession(client, 4, c, topo(1, 2), worker)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2}
		b := &Array{Name: "B", M: 6, N: 4, MB: 2, NB: 2}
		s.RegisterArray(a)
		s.RegisterArray(b)
		fillByGlobal(s, a)
		fillByGlobal(s, b)
		s.SetReplicated("x", []float64{7, 8, 9})
		return worker(s)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExpandRebroadcastsReplicatedToAllRanks(t *testing.T) {
	// A replicated buffer set on rank 0 alone must reach every rank of the
	// grown processor set at expansion — the newly spawned ranks through the
	// child bootstrap AND the pre-existing non-root ranks, which would
	// otherwise keep silently divergent replicated state.
	client := &ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
	}}
	var divergent sync.Map
	worker := func(s *Session) error {
		for s.Iter() < 2 {
			if s.Iter() >= 1 {
				// After the expansion every rank must see rank 0's value.
				got := s.Replicated("tally")
				if len(got) != 2 || got[0] != 41 || got[1] != 43 {
					divergent.Store(s.Comm().Rank(), append([]float64{}, got...))
				}
			}
			if s.Iter() == 0 && s.Comm().Rank() == 0 {
				s.SetReplicated("tally", []float64{41, 43})
			}
			st, err := s.Resize(0.01)
			if err != nil {
				return err
			}
			if st == Retired {
				return nil
			}
		}
		return s.Done()
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSession(client, 13, c, topo(1, 2), worker)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2}
		s.RegisterArray(a)
		fillByGlobal(s, a)
		return worker(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	divergent.Range(func(k, v any) bool {
		t.Errorf("rank %v has replicated tally %v after expansion, want [41 43]", k, v)
		return true
	})
}

func TestShrinkRebroadcastsReplicatedToSurvivors(t *testing.T) {
	// A replicated buffer that diverged on a non-root rank must be
	// overwritten with rank 0's authoritative copy when the processor set
	// shrinks, mirroring the expansion-side re-broadcast.
	client := &ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionShrink, Target: topo(1, 2)},
	}}
	var divergent sync.Map
	worker := func(s *Session) error {
		for s.Iter() < 2 {
			if s.Iter() >= 1 {
				got := s.Replicated("tally")
				if len(got) != 1 || got[0] != 7 {
					divergent.Store(s.Comm().Rank(), append([]float64{}, got...))
				}
			}
			st, err := s.Resize(0.01)
			if err != nil {
				return err
			}
			if st == Retired {
				return nil
			}
		}
		return s.Done()
	}
	err := mpi.Run(4, func(c *mpi.Comm) error {
		s, err := NewSession(client, 16, c, topo(2, 2), worker)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2}
		s.RegisterArray(a)
		fillByGlobal(s, a)
		// Every rank starts with a divergent value; rank 0's is canonical.
		s.SetReplicated("tally", []float64{float64(7 + c.Rank()*100)})
		return worker(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	divergent.Range(func(k, v any) bool {
		t.Errorf("surviving rank %v has replicated tally %v after shrink, want [7]", k, v)
		return true
	})
}

func TestReplicatedUpdatesReachSecondGeneration(t *testing.T) {
	// Replicated state replaced collectively between two expansions must
	// reach the second generation of spawned ranks with its latest value.
	client := &ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(1, 2)},
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
		{Action: scheduler.ActionNone},
	}}
	worker := func(s *Session) error {
		for s.Iter() < 3 {
			want := float64(s.Iter()) // value set at end of the previous iteration
			x := s.Replicated("x")
			if len(x) != 1 || x[0] != want {
				return fmt.Errorf("rank %d iter %d on %v: x=%v want [%v]",
					s.Comm().Rank(), s.Iter(), s.Topo(), x, want)
			}
			s.SetReplicated("x", []float64{float64(s.Iter() + 1)})
			st, err := s.Resize(0.01)
			if err != nil {
				return err
			}
			if st == Retired {
				return nil
			}
		}
		return s.Done()
	}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewSession(client, 14, c, topo(1, 1), worker)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2}
		s.RegisterArray(a)
		fillByGlobal(s, a)
		s.SetReplicated("x", []float64{0})
		return worker(s)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceCountsIterationsWithoutContact(t *testing.T) {
	client := &ScriptedClient{}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSession(client, 15, c, topo(1, 2), nil)
		if err != nil {
			return err
		}
		s.Advance()
		s.Advance()
		if s.Iter() != 2 {
			return fmt.Errorf("iter %d after two Advance calls", s.Iter())
		}
		if _, err := s.Resize(0.01); err != nil {
			return err
		}
		if s.Iter() != 3 {
			return fmt.Errorf("iter %d after Advance+Resize", s.Iter())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both ranks call Resize once; only rank 0 contacts the scheduler.
	if client.Contacts != 1 {
		t.Errorf("scheduler contacted %d times, want 1 (Advance must not contact)", client.Contacts)
	}
}

func TestSessionLogAveragesAcrossRanks(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSession(NullClient{}, 5, c, topo(1, 2), nil)
		if err != nil {
			return err
		}
		avg := s.Log(float64(c.Rank() + 1)) // times 1 and 2 -> avg 1.5
		if avg != 1.5 {
			return fmt.Errorf("avg %v", avg)
		}
		if c.Rank() == 0 {
			recs := s.LogRecords()
			if len(recs) != 1 || recs[0].AvgTime != 1.5 {
				return fmt.Errorf("records %v", recs)
			}
		} else if len(s.LogRecords()) != 0 {
			return fmt.Errorf("non-root rank has log records")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSessionNullClientNeverResizes(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSession(NullClient{}, 6, c, topo(1, 2), nil)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			st, err := s.Resize(0.01)
			if err != nil {
				return err
			}
			if st != Continue || s.Topo() != topo(1, 2) {
				return fmt.Errorf("null client resized to %v", s.Topo())
			}
		}
		if s.Iter() != 3 {
			return fmt.Errorf("iter %d", s.Iter())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExpandValidatesTarget(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSession(NullClient{}, 7, c, topo(1, 2), nil)
		if err != nil {
			return err
		}
		if err := s.ExpandProcessors(topo(1, 2)); err == nil {
			return fmt.Errorf("non-growing expand accepted")
		}
		if _, err := s.ShrinkProcessors(topo(2, 2)); err == nil {
			return fmt.Errorf("non-shrinking shrink accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedExpansionGrowsChain(t *testing.T) {
	// 1 -> 2 -> 4 -> 6 ranks across three expansions, data verified at each.
	client := &ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(1, 2)},
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
		{Action: scheduler.ActionExpand, Target: topo(2, 3)},
	}}
	const totalIters = 5
	worker := func(s *Session) error {
		for s.Iter() < totalIters {
			a, _ := s.Array("A")
			if err := verifyByGlobal(s, a); err != nil {
				return fmt.Errorf("on %v: %w", s.Topo(), err)
			}
			st, err := s.Resize(0.01)
			if err != nil {
				return err
			}
			if st == Retired {
				return nil
			}
		}
		if s.Comm().Size() != 6 {
			return fmt.Errorf("final comm size %d", s.Comm().Size())
		}
		return s.Done()
	}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		s, err := NewSession(client, 8, c, topo(1, 1), worker)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 12, N: 12, MB: 2, NB: 2}
		s.RegisterArray(a)
		fillByGlobal(s, a)
		return worker(s)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlanCacheReusedAcrossOscillation(t *testing.T) {
	// The paper's shrink/expand cycles oscillate between the same two grids;
	// the session must build each (from, to) plan once and reuse it.
	a3 := topo(2, 3)
	a2 := topo(2, 2)
	err := mpi.Run(6, func(c *mpi.Comm) error {
		s, err := NewSession(NullClient{}, 10, c, a3, nil)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 12, N: 12, MB: 2, NB: 2}
		b := &Array{Name: "B", M: 8, N: 10, MB: 2, NB: 2}
		s.RegisterArray(a)
		s.RegisterArray(b)
		fillByGlobal(s, a)
		fillByGlobal(s, b)

		for cycle := 0; cycle < 3; cycle++ {
			if err := s.RedistributeAll(a3, a2); err != nil {
				return err
			}
			if err := s.RedistributeAll(a2, a3); err != nil {
				return err
			}
		}
		// Back on the original topology: data must be intact.
		for _, arr := range []*Array{a, b} {
			if err := verifyByGlobal(s, arr); err != nil {
				return err
			}
		}
		if len(s.planCache) != 2 {
			return fmt.Errorf("plan cache has %d entries after oscillation, want 2", len(s.planCache))
		}
		mp1, err := s.planFor(a3, a2)
		if err != nil {
			return err
		}
		mp2, err := s.planFor(a3, a2)
		if err != nil {
			return err
		}
		if mp1 != mp2 {
			return fmt.Errorf("planFor rebuilt a cached plan")
		}
		// Registering another array fuses a different set: cache must drop.
		s.RegisterArray(&Array{Name: "C", M: 4, N: 4, MB: 2, NB: 2})
		if s.planCache != nil {
			return fmt.Errorf("plan cache survived RegisterArray")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRedistObservationsRecorded(t *testing.T) {
	from := topo(2, 3)
	to := topo(2, 2)
	obsCh := make(chan []perfmodel.RedistObservation, 1)
	err := mpi.Run(6, func(c *mpi.Comm) error {
		s, err := NewSession(NullClient{}, 11, c, from, nil)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 12, N: 12, MB: 2, NB: 2}
		s.RegisterArray(a)
		fillByGlobal(s, a)
		if err := s.RedistributeAll(from, to); err != nil {
			return err
		}
		if err := s.RedistributeAll(to, from); err != nil {
			return err
		}
		if c.Rank() == 0 {
			obsCh <- s.RedistObservations()
		} else if len(s.RedistObservations()) != 0 {
			return fmt.Errorf("rank %d recorded observations", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := <-obsCh
	if len(obs) != 2 {
		t.Fatalf("%d observations, want 2", len(obs))
	}
	// 2x3 -> 2x2: rows 2->2 is 1 step, cols 3->2 is 3 steps.
	for i, o := range obs {
		if o.Bytes <= 0 {
			t.Errorf("observation %d moved no network bytes: %+v", i, o)
		}
		if o.Steps != 3 {
			t.Errorf("observation %d has %d steps, want 3", i, o.Steps)
		}
		if o.MinProcs != 4 {
			t.Errorf("observation %d MinProcs = %d, want 4", i, o.MinProcs)
		}
		if o.Seconds < 0 {
			t.Errorf("observation %d negative duration", i)
		}
	}
	// The calibration hook must accept the measured log (real goroutine runs
	// are fast, so some observations may fall under the latency floor and be
	// skipped — it just must not use more than it was given).
	p := perfmodel.SystemX()
	if used := p.CalibrateRedist(obs); used < 0 || used > len(obs) {
		t.Errorf("calibration used %d of %d observations", used, len(obs))
	}
}

func TestExpandRecordsObservation(t *testing.T) {
	client := &ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
	}}
	obsCh := make(chan int, 4)
	worker := func(s *Session) error {
		for s.Iter() < 2 {
			st, err := s.Resize(0.01)
			if err != nil {
				return err
			}
			if st == Retired {
				return nil
			}
		}
		if s.Comm().Rank() == 0 {
			obsCh <- len(s.RedistObservations())
		}
		return s.Done()
	}
	err := mpi.Run(2, func(c *mpi.Comm) error {
		s, err := NewSession(client, 12, c, topo(1, 2), worker)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 8, N: 8, MB: 2, NB: 2}
		s.RegisterArray(a)
		fillByGlobal(s, a)
		return worker(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	close(obsCh)
	got := 0
	for n := range obsCh {
		if n > got {
			got = n
		}
	}
	if got != 1 {
		t.Errorf("rank 0 recorded %d observations after one expansion, want 1", got)
	}
}
