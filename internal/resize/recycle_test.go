package resize

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
)

// TestOscillationRecyclesPieces drives a session back and forth between
// 2x2 and 3x3 for ten cycles, with a garbage collection before each.
// Arrays must come back bit-identical to the pieces they started as, and
// once the first cycle has stocked the spares and the arena, a resize must
// allocate under 1 % of the bytes it moves: the collector does not empty
// the arena. The budget is held on the median cycle: how many wire buffers
// are in flight at once depends on how the ranks are scheduled, so a later
// cycle can still add a buffer to the arena — the total is only held to
// 10 %, against about 400 % before pieces and buffers were recycled. The
// budgets hold under the race detector too: unlike a sync.Pool, the arena
// keeps what it is given.
func TestOscillationRecyclesPieces(t *testing.T) {
	const (
		m, nb   = 240, 8
		nArrays = 3
		cycles  = 10
	)
	small, large := topo(2, 2), topo(3, 3)

	perCycle := make([]float64, 0, cycles) // bytes allocated by all ranks; rank 0 appends
	err := mpi.Run(large.Count(), func(c *mpi.Comm) error {
		s, err := NewSession(NullClient{}, 20, c, small, nil)
		if err != nil {
			return err
		}
		var orig [][]float64
		for a := 0; a < nArrays; a++ {
			arr := &Array{Name: fmt.Sprint("A", a), M: m + a, N: m - a, MB: nb, NB: nb}
			s.RegisterArray(arr)
			if c.Rank() < small.Count() {
				fillByGlobal(s, arr)
			}
			orig = append(orig, slices.Clone(arr.Data))
		}
		var ms runtime.MemStats
		for cycle := 0; cycle < cycles; cycle++ {
			c.Barrier()
			if c.Rank() == 0 {
				runtime.GC()
				runtime.ReadMemStats(&ms)
			}
			before := ms.TotalAlloc
			c.Barrier()
			if err := s.RedistributeAll(small, large); err != nil {
				return err
			}
			if err := s.RedistributeAll(large, small); err != nil {
				return err
			}
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&ms)
				perCycle = append(perCycle, float64(ms.TotalAlloc-before))
			}
		}
		for a, arr := range s.Arrays() {
			if !slices.Equal(arr.Data, orig[a]) {
				return fmt.Errorf("rank %d: array %s differs from its no-resize contents", c.Rank(), arr.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	moved := 0.0 // bytes through one cycle: every array crosses twice
	for a := 0; a < nArrays; a++ {
		moved += 2 * 8 * float64((m+a)*(m-a))
	}
	steady := perCycle[1:]
	total := 0.0
	for _, b := range steady {
		total += b
	}
	slices.Sort(steady)
	median := steady[len(steady)/2]
	t.Logf("first cycle allocated %.0f B; after it median %.0f B, mean %.0f B per cycle of %.0f B moved",
		perCycle[0], median, total/float64(len(steady)), moved)
	if median > 0.01*moved {
		t.Errorf("steady-state cycle allocates %.0f B, want under 1 %% of the %.0f B it moves", median, moved)
	}
	if total > 0.10*moved*float64(len(steady)) {
		t.Errorf("cycles after the first allocated %.0f B in all, want under 10 %% of what they moved", total)
	}
}

// TestRecyclingLeavesSessionStateAlone runs real expansions and shrinks
// 2x2 -> 3x3 -> 2x2 -> 3x3 -> 2x2: survivors recycle their pieces, spawned
// ranks take theirs from the arena, retired ranks return theirs to it. Replicated buffers,
// the redistribution observations and LastRedist must be what they are
// without recycling, and a retired rank must end with nil Data.
func TestRecyclingLeavesSessionStateAlone(t *testing.T) {
	small, large := topo(2, 2), topo(3, 3)
	client := &ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: large},
		{Action: scheduler.ActionShrink, Target: small},
		{Action: scheduler.ActionExpand, Target: large},
		{Action: scheduler.ActionShrink, Target: small},
		{Action: scheduler.ActionNone},
	}}
	const totalIters = 5
	var mu sync.Mutex
	var obs []perfmodel.RedistObservation
	retired := 0

	worker := func(s *Session) error {
		for s.Iter() < totalIters {
			for _, a := range s.Arrays() {
				if err := verifyByGlobal(s, a); err != nil {
					return fmt.Errorf("iter %d on %v: %s: %w", s.Iter(), s.Topo(), a.Name, err)
				}
			}
			if x := s.Replicated("x"); !slices.Equal(x, []float64{7, 8, 9}) {
				return fmt.Errorf("iter %d rank %d: replicated x = %v", s.Iter(), s.Comm().Rank(), x)
			}
			st, err := s.Resize(0.01)
			if err != nil {
				return err
			}
			if st == Retired {
				for _, a := range s.Arrays() {
					if a.Data != nil {
						return fmt.Errorf("retired rank keeps %d floats of %s", len(a.Data), a.Name)
					}
				}
				mu.Lock()
				retired++
				mu.Unlock()
				return nil
			}
			if resized := s.Iter() < totalIters; resized != (s.LastRedist() > 0) {
				return fmt.Errorf("iter %d: LastRedist = %v", s.Iter(), s.LastRedist())
			}
		}
		if s.Comm().Rank() == 0 {
			mu.Lock()
			obs = s.RedistObservations()
			mu.Unlock()
		}
		return s.Done()
	}
	err := mpi.Run(small.Count(), func(c *mpi.Comm) error {
		s, err := NewSession(client, 21, c, small, worker)
		if err != nil {
			return err
		}
		for _, a := range []*Array{{Name: "A", M: 24, N: 24, MB: 2, NB: 2}, {Name: "B", M: 13, N: 9, MB: 3, NB: 2}} {
			s.RegisterArray(a)
			fillByGlobal(s, a)
		}
		s.SetReplicated("x", []float64{7, 8, 9})
		return worker(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if retired != 10 {
		t.Errorf("%d ranks retired over two shrinks, want 10", retired)
	}
	if len(client.Completed) != 4 {
		t.Errorf("ResizeComplete calls = %d, want 4", len(client.Completed))
	}
	if len(obs) != 4 {
		t.Fatalf("%d observations, want 4", len(obs))
	}
	// The second lap runs on recycled pieces; it must account the same
	// traffic as the first, which ran on fresh ones.
	for i := 0; i < 2; i++ {
		first, again := obs[i], obs[i+2]
		first.Seconds, again.Seconds = 0, 0
		if first != again || first.Bytes <= 0 || first.CopiedBytes <= 0 {
			t.Errorf("resize %d observed %+v, its repeat on recycled pieces %+v", i, first, again)
		}
	}
}
