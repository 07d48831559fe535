package scheduler

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/grid"
)

func topo(r, c int) grid.Topology { return grid.Topology{Rows: r, Cols: c} }

// chain12000 is the paper's Table 2 ladder for problem size 12000.
func chain12000() []grid.Topology {
	return grid.GrowthChain(topo(1, 2), 12000, 50)
}

func profileWith(visits ...Visit) *Profile {
	p := NewProfile()
	for _, v := range visits {
		for _, t := range v.IterTimes {
			p.RecordIteration(v.Topo, t)
		}
	}
	return p
}

func TestDecideExpandsFreshJob(t *testing.T) {
	p := profileWith(Visit{Topo: topo(1, 2), IterTimes: []float64{129.63}})
	d := Decide(RemapInput{
		Current: topo(1, 2), Chain: chain12000(), Profile: p, IdleProcs: 30,
	})
	if d.Action != ActionExpand || d.Target != topo(2, 2) {
		t.Fatalf("decision %+v, want expand to 2x2", d)
	}
}

func TestDecideKeepsExpandingWhileImproving(t *testing.T) {
	// The Figure 3(a) trajectory: 2 -> 4 -> 6 procs, each faster.
	p := profileWith(
		Visit{Topo: topo(1, 2), IterTimes: []float64{129.63}},
		Visit{Topo: topo(2, 2), IterTimes: []float64{112.52}},
		Visit{Topo: topo(2, 3), IterTimes: []float64{82.31}},
	)
	d := Decide(RemapInput{Current: topo(2, 3), Chain: chain12000(), Profile: p, IdleProcs: 10})
	if d.Action != ActionExpand || d.Target != topo(3, 3) {
		t.Fatalf("decision %+v, want expand to 3x3", d)
	}
}

func TestDecideShrinksBackAfterFailedExpansion(t *testing.T) {
	// Figure 3(a): expanding 12 -> 16 degraded iteration time by 5.06s, so
	// the job is resized back to 12.
	p := profileWith(
		Visit{Topo: topo(3, 4), IterTimes: []float64{69.85}},
		Visit{Topo: topo(4, 4), IterTimes: []float64{74.91}},
	)
	d := Decide(RemapInput{Current: topo(4, 4), Chain: chain12000(), Profile: p, IdleProcs: 20})
	if d.Action != ActionShrink || d.Target != topo(3, 4) {
		t.Fatalf("decision %+v, want shrink to 3x4", d)
	}
}

func TestDecideHoldsAtSweetSpot(t *testing.T) {
	// After shrinking back, the job must hold: iterations 8-10 of Figure
	// 3(a) stay at 12 processors.
	p := profileWith(
		Visit{Topo: topo(3, 4), IterTimes: []float64{69.85}},
		Visit{Topo: topo(4, 4), IterTimes: []float64{74.91}},
		Visit{Topo: topo(3, 4), IterTimes: []float64{69.85, 69.90}},
	)
	d := Decide(RemapInput{Current: topo(3, 4), Chain: chain12000(), Profile: p, IdleProcs: 20})
	if d.Action != ActionNone {
		t.Fatalf("decision %+v, want none (hold at sweet spot)", d)
	}
}

func TestDecideNoExpandWithoutIdleProcs(t *testing.T) {
	p := profileWith(Visit{Topo: topo(2, 2), IterTimes: []float64{50}})
	d := Decide(RemapInput{Current: topo(2, 2), Chain: chain12000(), Profile: p, IdleProcs: 0})
	if d.Action != ActionNone {
		t.Fatalf("decision %+v, want none", d)
	}
}

func TestDecideNoExpandWhenNextConfigTooBig(t *testing.T) {
	p := profileWith(Visit{Topo: topo(2, 2), IterTimes: []float64{50}})
	// next config is 2x3 (6 procs, needs 2 more) but only 1 idle
	d := Decide(RemapInput{Current: topo(2, 2), Chain: chain12000(), Profile: p, IdleProcs: 1})
	if d.Action != ActionNone {
		t.Fatalf("decision %+v, want none", d)
	}
}

func TestDecideShrinkForQueuedJobPrefersLargestShrinkPoint(t *testing.T) {
	// Job visited 4, 6, 9, 12 procs; a queued job needs 3 procs and 1 is
	// idle: shrinking to 9 (freeing 3, least harmful) suffices — not all
	// the way down.
	p := profileWith(
		Visit{Topo: topo(2, 2), IterTimes: []float64{100}},
		Visit{Topo: topo(2, 3), IterTimes: []float64{80}},
		Visit{Topo: topo(3, 3), IterTimes: []float64{70}},
		Visit{Topo: topo(3, 4), IterTimes: []float64{65}},
	)
	d := Decide(RemapInput{
		Current: topo(3, 4), Chain: chain12000(), Profile: p,
		IdleProcs: 1, QueuedNeeds: []int{4},
	})
	if d.Action != ActionShrink || d.Target != topo(3, 3) {
		t.Fatalf("decision %+v, want shrink to 3x3", d)
	}
}

func TestDecideShrinkToSmallestWhenInsufficient(t *testing.T) {
	// Queue head needs 40; job can free at most 10 even at its smallest
	// shrink point: shrink to smallest and wait.
	p := profileWith(
		Visit{Topo: topo(2, 2), IterTimes: []float64{100}},
		Visit{Topo: topo(2, 3), IterTimes: []float64{80}},
		Visit{Topo: topo(3, 4), IterTimes: []float64{65}},
	)
	d := Decide(RemapInput{
		Current: topo(3, 4), Chain: chain12000(), Profile: p,
		IdleProcs: 0, QueuedNeeds: []int{40},
	})
	if d.Action != ActionShrink || d.Target != topo(2, 2) {
		t.Fatalf("decision %+v, want shrink to smallest (2x2)", d)
	}
}

func TestDecideQueuedButNoShrinkPoints(t *testing.T) {
	// A job still at its starting configuration cannot shrink.
	p := profileWith(Visit{Topo: topo(2, 2), IterTimes: []float64{100}})
	d := Decide(RemapInput{
		Current: topo(2, 2), Chain: chain12000(), Profile: p,
		IdleProcs: 0, QueuedNeeds: []int{4},
	})
	if d.Action != ActionNone {
		t.Fatalf("decision %+v, want none", d)
	}
}

func TestDecideReExpansionAfterQueueShrink(t *testing.T) {
	// W1 behaviour: job shrunk for the queue can climb back once the queue
	// drains, because its last expansion had improved iteration time.
	p := profileWith(
		Visit{Topo: topo(2, 3), IterTimes: []float64{80}},
		Visit{Topo: topo(3, 3), IterTimes: []float64{70}},
		Visit{Topo: topo(2, 2), IterTimes: []float64{100, 101}}, // queue shrink
	)
	d := Decide(RemapInput{Current: topo(2, 2), Chain: chain12000(), Profile: p, IdleProcs: 30})
	if d.Action != ActionExpand || d.Target != topo(2, 3) {
		t.Fatalf("decision %+v, want expand to 2x3", d)
	}
}

func TestDecideAtLargestConfiguration(t *testing.T) {
	chain := chain12000()
	last := chain[len(chain)-1]
	p := profileWith(
		Visit{Topo: chain[len(chain)-2], IterTimes: []float64{30}},
		Visit{Topo: last, IterTimes: []float64{25}},
	)
	d := Decide(RemapInput{Current: last, Chain: chain, Profile: p, IdleProcs: 50})
	if d.Action != ActionNone {
		t.Fatalf("decision %+v, want none at top of chain", d)
	}
}

func TestProfileShrinkPointsSortedDescending(t *testing.T) {
	p := profileWith(
		Visit{Topo: topo(1, 2), IterTimes: []float64{1}},
		Visit{Topo: topo(2, 2), IterTimes: []float64{1}},
		Visit{Topo: topo(2, 3), IterTimes: []float64{1}},
		Visit{Topo: topo(1, 2), IterTimes: []float64{1}}, // revisit: no duplicate
	)
	pts := p.ShrinkPoints(topo(3, 3))
	if len(pts) != 3 || pts[0] != topo(2, 3) || pts[1] != topo(2, 2) || pts[2] != topo(1, 2) {
		t.Fatalf("shrink points %v", pts)
	}
}

// TestAppendShrinkPointsMatchesSortSlice holds the insertion-ordered shrink
// list to the sort.Slice version it replaced, equal-Count ties included, on
// random visit histories; the storage handed in is appended to, never
// rewritten.
func TestAppendShrinkPointsMatchesSortSlice(t *testing.T) {
	pool := []grid.Topology{
		topo(1, 2), topo(2, 1), topo(2, 2), topo(1, 4), topo(4, 1), topo(2, 3),
		topo(2, 4), topo(4, 2), topo(1, 8), topo(3, 3), topo(3, 4), topo(4, 4),
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		p := NewProfile()
		for n := rng.Intn(20); n > 0; n-- {
			p.RecordIteration(pool[rng.Intn(len(pool))], 1)
		}
		cur := pool[rng.Intn(len(pool))]
		var want []grid.Topology
		for _, v := range p.Visits {
			if v.Topo.Count() < cur.Count() && !slices.Contains(want, v.Topo) {
				want = append(want, v.Topo)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Count() > want[j].Count() })
		if got := p.ShrinkPoints(cur); !slices.Equal(got, want) {
			t.Fatalf("trial %d: ShrinkPoints(%v) = %v, sort.Slice gave %v", trial, cur, got, want)
		}
		prefix := []grid.Topology{topo(9, 9), topo(1, 1)}
		got := p.AppendShrinkPoints(prefix, cur)
		if !slices.Equal(got[:2], prefix) || !slices.Equal(got[2:], want) {
			t.Fatalf("trial %d: AppendShrinkPoints onto %v = %v, want the prefix then %v", trial, prefix, got, want)
		}
	}
}

func TestProfileLastExpansion(t *testing.T) {
	p := profileWith(
		Visit{Topo: topo(1, 2), IterTimes: []float64{10}},
		Visit{Topo: topo(2, 2), IterTimes: []float64{8}},
		Visit{Topo: topo(1, 2), IterTimes: []float64{10}},
	)
	before, after, ok := p.LastExpansion()
	if !ok || before.Topo != topo(1, 2) || after.Topo != topo(2, 2) {
		t.Fatalf("last expansion %v -> %v (%v)", before, after, ok)
	}
	empty := NewProfile()
	if _, _, ok := empty.LastExpansion(); ok {
		t.Fatal("empty profile reports expansion")
	}
}

func TestProfileRedistCosts(t *testing.T) {
	p := NewProfile()
	p.RecordRedist(topo(1, 2), topo(2, 2), 8.0)
	if v, ok := p.RedistCost(topo(1, 2), topo(2, 2)); !ok || v != 8.0 {
		t.Fatalf("redist cost %v/%v", v, ok)
	}
	if _, ok := p.RedistCost(topo(2, 2), topo(1, 2)); ok {
		t.Fatal("reverse direction should be unrecorded")
	}
}

// TestRedistKeyMatchesFmt pins the pair keys to the format snapshots and
// testdata/parent-format/ were written with: a recorded pair's key is fmt's
// "%s->%s", ParseRedistKey gives the pair back from fmt's key, a profile
// restored from parsed keys answers RedistCost as the recording one does,
// and the lookup does not allocate.
func TestRedistKeyMatchesFmt(t *testing.T) {
	dims := []int{1, 2, 9, 10, 12, 99, 100, 128, 999, 1000, 4096}
	var topos []grid.Topology
	for _, r := range dims {
		for _, c := range dims {
			topos = append(topos, topo(r, c))
		}
	}
	recorded, restored := NewProfile(), NewProfile()
	for i, from := range topos {
		to := topos[(i*7+3)%len(topos)]
		key := fmt.Sprintf("%s->%s", from, to)
		recorded.RecordRedist(from, to, float64(i))
		if n := len(recorded.Redist); n != i+1 || string(recorded.Redist[i].AppendKey(nil)) != key {
			t.Fatalf("RecordRedist(%v, %v): pair %d of %d is not under key %q", from, to, i, n, key)
		}
		pf, pt, ok := ParseRedistKey([]byte(key))
		if !ok || pf != from || pt != to {
			t.Fatalf("ParseRedistKey(%q) = %v, %v, %v", key, pf, pt, ok)
		}
		restored.Redist = append(restored.Redist, RedistPair{From: pf, To: pt, Seconds: float64(i)})
		if v, ok := restored.RedistCost(from, to); !ok || v != float64(i) {
			t.Fatalf("RedistCost(%v, %v) = %v/%v, want %d from key %q", from, to, v, ok, i, key)
		}
	}
	last := len(topos) - 1 // the last pair recorded: the longest scan
	from, to := topos[last], topos[(last*7+3)%len(topos)]
	if n := testing.AllocsPerRun(100, func() { restored.RedistCost(from, to) }); n != 0 {
		t.Fatalf("RedistCost allocates %.0f times per lookup", n)
	}
}

func TestProfileTimeAtUsesLatestVisit(t *testing.T) {
	p := profileWith(
		Visit{Topo: topo(2, 2), IterTimes: []float64{100}},
		Visit{Topo: topo(2, 3), IterTimes: []float64{80}},
		Visit{Topo: topo(2, 2), IterTimes: []float64{95}},
	)
	if v, ok := p.TimeAt(topo(2, 2)); !ok || v != 95 {
		t.Fatalf("TimeAt = %v/%v, want 95", v, ok)
	}
	if _, ok := p.TimeAt(topo(5, 5)); ok {
		t.Fatal("unvisited topology should miss")
	}
}

func TestVisitStats(t *testing.T) {
	v := Visit{IterTimes: []float64{2, 4}}
	if v.Last() != 4 || v.Mean() != 3 {
		t.Fatalf("Last %v Mean %v", v.Last(), v.Mean())
	}
	empty := Visit{}
	if empty.Last() != 0 || empty.Mean() != 0 {
		t.Fatal("empty visit stats should be 0")
	}
}
