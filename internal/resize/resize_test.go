package resize

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/redistrib"
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

// countPlanBuilds starts the test on an empty plan cache and counts the
// plans built until it ends; delay stretches every build so concurrent
// callers overlap it.
func countPlanBuilds(t *testing.T, delay time.Duration) *atomic.Int32 {
	t.Helper()
	var builds atomic.Int32
	clearPlans()
	buildPlan = func(arrays []*Array, from, to grid.Topology) (*redistrib.MultiPlan, error) {
		builds.Add(1)
		time.Sleep(delay)
		return newMultiPlan(arrays, from, to)
	}
	t.Cleanup(func() {
		buildPlan = newMultiPlan
		clearPlans()
	})
	return &builds
}

func clearPlans() {
	plans.Lock()
	clear(plans.m)
	plans.Unlock()
}

func cachedPlans() int {
	plans.Lock()
	defer plans.Unlock()
	return len(plans.m)
}

func TestPlanCacheReusedAcrossOscillation(t *testing.T) {
	// The paper's shrink/expand cycles oscillate between the same two grids,
	// and later jobs repeat the shapes of earlier ones: every session in the
	// process executes one shared plan per layout tuple.
	a3 := topo(2, 3)
	a2 := topo(2, 2)
	builds := countPlanBuilds(t, 0)
	job := func(jobID int) (*redistrib.MultiPlan, error) {
		var shared *redistrib.MultiPlan
		err := mpi.Run(6, func(c *mpi.Comm) error {
			s, err := NewSession(NullClient{}, jobID, c, a3, nil)
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
			if c.Rank() == 0 {
				shared, err = planFor(s.Arrays(), a3, a2)
			}
			return err
		})
		return shared, err
	}
	mp1, err := job(10)
	if err != nil {
		t.Fatal(err)
	}
	mp2, err := job(11)
	if err != nil {
		t.Fatal(err)
	}
	if mp1 == nil || mp1 != mp2 {
		t.Fatalf("jobs in separate worlds got plans %p and %p, want one shared plan", mp1, mp2)
	}
	// Six ranks of two jobs, six cycles each: one build per direction.
	if n := builds.Load(); n != 2 {
		t.Fatalf("built %d plans, want 2 (one per direction)", n)
	}

	// Another array set is another layout tuple.
	other, err := planFor([]*Array{{Name: "A", M: 12, N: 12, MB: 2, NB: 2}}, a3, a2)
	if err != nil {
		t.Fatal(err)
	}
	if other == mp1 {
		t.Fatal("a different array set got the cached plan")
	}
	// Names are not part of the tuple: the same shapes share the plan.
	renamed, err := planFor([]*Array{{Name: "X", M: 12, N: 12, MB: 2, NB: 2}, {Name: "Y", M: 8, N: 10, MB: 2, NB: 2}}, a3, a2)
	if err != nil {
		t.Fatal(err)
	}
	if renamed != mp1 {
		t.Fatal("the same layout tuple under other names got another plan")
	}

	// The cache is bounded: many distinct shapes never grow it past maxPlans.
	for i := 0; i < 3*maxPlans; i++ {
		if _, err := planFor([]*Array{{Name: "A", M: 4 + i, N: 4, MB: 2, NB: 2}}, a3, a2); err != nil {
			t.Fatal(err)
		}
		if n := cachedPlans(); n > maxPlans {
			t.Fatalf("plan cache holds %d entries after %d shapes, bound %d", n, i+1, maxPlans)
		}
	}
}

func TestPlanCacheHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not asserted under -race")
	}
	countPlanBuilds(t, 0)
	arrays := []*Array{{Name: "A", M: 12, N: 12, MB: 2, NB: 2}, {Name: "B", M: 8, N: 10, MB: 2, NB: 2}}
	if _, err := planFor(arrays, topo(2, 3), topo(2, 2)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := planFor(arrays, topo(2, 3), topo(2, 2)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a cache hit allocates %v times, want 0", allocs)
	}
}

func TestPlanCacheBuildsOnceAcrossSpawn(t *testing.T) {
	// The ranks of an expanding job and the ranks it spawns all ask for the
	// same plan at once: it is built once and every rank executes it.
	from, to := topo(2, 2), topo(2, 3)
	builds := countPlanBuilds(t, time.Millisecond)
	var mu sync.Mutex
	var seen []*redistrib.MultiPlan
	record := func(s *Session, a *Array) error {
		if err := verifyByGlobal(s, a); err != nil {
			return err
		}
		mp, err := planFor(s.Arrays(), from, to)
		mu.Lock()
		seen = append(seen, mp)
		mu.Unlock()
		return err
	}
	err := mpi.Run(from.Count(), func(c *mpi.Comm) error {
		child := func(s *Session) error {
			a, _ := s.Array("A")
			return record(s, a)
		}
		s, err := NewSession(NullClient{}, 12, c, from, child)
		if err != nil {
			return err
		}
		a := &Array{Name: "A", M: 30, N: 18, MB: 3, NB: 2}
		s.RegisterArray(a)
		fillByGlobal(s, a)
		if err := s.ExpandProcessors(to); err != nil {
			return err
		}
		return record(s, a)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("plan built %d times, want 1", n)
	}
	if len(seen) != to.Count() {
		t.Fatalf("%d ranks finished, want %d", len(seen), to.Count())
	}
	for r, mp := range seen {
		if mp == nil || mp != seen[0] {
			t.Fatalf("rank %d executed plan %p, rank 0 %p", r, mp, seen[0])
		}
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
