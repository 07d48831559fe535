package simcluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
)

// tickPlanner is an arbiter that never resizes and plans nothing; it only
// makes Core.Rebalance journal its ticks.
type tickPlanner struct{}

func (tickPlanner) Name() string                                        { return "tick" }
func (tickPlanner) Decide(scheduler.ClusterSnapshot) scheduler.Decision { return scheduler.Decision{} }
func (tickPlanner) Rebalance(scheduler.ClusterSnapshot)                 {}

// journaled runs sim on a traced core whose journal records every op, and
// returns the ops as "kind@time[:job]" in dispatch order.
func journaled(t *testing.T, total int, sim *Sim) []string {
	t.Helper()
	core := scheduler.NewCore(total, true)
	var ops []string
	core.SetJournal(func(op scheduler.Op) error {
		s := fmt.Sprintf("%s@%g", op.Kind, op.Now)
		if op.Kind == scheduler.OpSubmit {
			s += ":" + op.Spec.Name
		}
		ops = append(ops, s)
		return nil
	})
	if _, err := sim.WithCore(core).Run(); err != nil {
		t.Fatal(err)
	}
	return ops
}

// TestArrivalWinsTieWithResizePointAndTick: an arrival due at the same
// instant as a running job's resize point and a rebalance tick, both
// queued long before it, is dispatched ahead of both, as it was when every
// arrival entered the timeline first.
func TestArrivalWinsTieWithResizePointAndTick(t *testing.T) {
	p := perfmodel.SystemX()
	iter, err := p.IterTime(perfmodel.AppModel{App: "lu", N: 12000}, topo(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []JobInput{luJob("A", 12000, topo(1, 2), 0, 3), luJob("B", 12000, topo(1, 2), iter, 3)}
	sim := New(50, Dynamic, p, jobs).WithArbiter(tickPlanner{}).WithRebalance(iter)
	ops := journaled(t, 50, sim)
	tie := fmt.Sprintf("@%g", iter)
	want := []string{"submit@0:A", "submit" + tie + ":B", "rebalance" + tie, "contact" + tie}
	if len(ops) < len(want) || !slices.Equal(ops[:len(want)], want) {
		t.Fatalf("dispatch order %v, want it to start %v", ops, want)
	}
}

// TestNegativeArrivalDeliveredAtZero: the clock starts at 0 and never runs
// backwards, so arrivals before it are submitted at 0, in mix order.
func TestNegativeArrivalDeliveredAtZero(t *testing.T) {
	p := perfmodel.SystemX()
	jobs := []JobInput{luJob("X", 12000, topo(1, 2), -5, 2), luJob("Y", 12000, topo(1, 2), -1, 2)}
	ops := journaled(t, 50, New(50, Dynamic, p, jobs))
	if want := []string{"submit@0:X", "submit@0:Y"}; !slices.Equal(ops[:2], want) {
		t.Fatalf("dispatch order %v, want it to start %v", ops, want)
	}
	res, err := New(50, Dynamic, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.Submit != 0 || j.Start != 0 {
			t.Fatalf("%s submitted at %v and started at %v, want both at 0", j.Name, j.Submit, j.Start)
		}
	}
}

// TestUnsortedMixReplaysAsSorted: a mix handed over out of arrival order
// is stable-sorted into a copy, leaving the caller's slice alone, and
// replays to exactly the result of the same mix pre-sorted, which is
// streamed without a copy.
func TestUnsortedMixReplaysAsSorted(t *testing.T) {
	p := perfmodel.SystemX()
	rng := rand.New(rand.NewSource(3))
	sizes := []int{8000, 12000, 16000, 24000}
	var unsorted []JobInput
	for i := 0; i < 40; i++ {
		// Arrivals on a coarse grid, so several jobs tie.
		arrival := float64(rng.Intn(20) * 100)
		unsorted = append(unsorted, luJob(fmt.Sprintf("j%d", i), sizes[rng.Intn(len(sizes))], topo(1, 2), arrival, 4))
	}
	sorted := append([]JobInput{}, unsorted...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })
	if slices.EqualFunc(sorted, unsorted, func(a, b JobInput) bool { return a.Spec.Name == b.Spec.Name }) {
		t.Fatal("the shuffled mix is already in arrival order")
	}
	before := append([]JobInput{}, unsorted...)

	if got := byArrival(sorted); &got[0] != &sorted[0] {
		t.Fatal("byArrival copied a mix already in arrival order")
	}
	a, err := New(64, Dynamic, p, unsorted).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unsorted, before) {
		t.Fatal("Run reordered the caller's mix")
	}
	b, err := New(64, Dynamic, p, sorted).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("unsorted mix replays differently from the sorted one: makespan %v vs %v", a.Makespan, b.Makespan)
	}
}

// TestCrashAtArrivalLandsBeforeIt: a crash planned at an arrival's instant
// restarts the scheduler before that job is submitted.
func TestCrashAtArrivalLandsBeforeIt(t *testing.T) {
	p := perfmodel.SystemX()
	jobs := []JobInput{luJob("A", 12000, topo(1, 2), 0, 3), luJob("B", 12000, topo(1, 2), 100, 3)}
	crashed := false
	_, err := New(50, Dynamic, p, jobs).
		WithCrashRestart(100, func(old *scheduler.Core) (*scheduler.Core, error) {
			crashed = true
			if n := len(old.Jobs()); n != 1 {
				t.Errorf("the core held %d jobs at the crash, want 1: B arrived first", n)
			}
			return old, nil
		}).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if !crashed {
		t.Fatal("the crash never fired")
	}
}
