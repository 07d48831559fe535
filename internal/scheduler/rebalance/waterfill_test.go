package rebalance

import (
	"maps"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// scanFill is the water-filling the heap replaced, kept as its reference:
// every round scans every standing bid for the highest perProc that fits
// the budget and gains something, the lower id among equals, and the
// winner re-bids from its next rung. It returns each job's rungs won and
// accumulated gain.
func scanFill(r *Rebalancer, jobs []jobView, budget int) map[int]expansion {
	type scanExp struct {
		expansion
		done bool
	}
	var exps []scanExp
	for i := range jobs {
		if j := &jobs[i]; j.shrink.sec <= 0 && len(j.bids) > 0 && j.bids[0].ok {
			exps = append(exps, scanExp{expansion: expansion{j: j}})
		}
	}
	for {
		var best *scanExp
		bestPerProc := 0.0
		for i := range exps {
			e := &exps[i]
			if e.done {
				continue
			}
			b := &e.j.bids[e.next]
			if b.delta > budget || b.marginal <= 0 {
				continue
			}
			if best == nil || b.perProc > bestPerProc || (b.perProc == bestPerProc && e.j.id < best.j.id) {
				best, bestPerProc = e, b.perProc
			}
		}
		if best == nil {
			break
		}
		won := best.j.bids[best.next]
		budget -= won.delta
		best.gain += won.marginal
		best.next++
		best.done = won.blind || best.next == len(best.j.bids) || !best.j.bids[best.next].ok
	}
	out := make(map[int]expansion)
	for _, e := range exps {
		if e.next > 0 {
			out[e.j.id] = expansion{next: e.next, gain: e.gain}
		}
	}
	return out
}

// randomViews builds views whose bids are all priced up front, so the
// water-filling prices nothing: few distinct gains per processor (ties
// across ids), unpriceable and blind rungs, and now and then a phase-1
// shrink candidate that keeps the job out of phase 2.
func randomViews(rng *rand.Rand) []jobView {
	levels := []float64{-1, 0, 0.5, 1, 1, 2, 3}
	jobs := make([]jobView, 1+rng.Intn(12))
	for i := range jobs {
		j := &jobs[i]
		j.id = 1 + rng.Intn(40)
		for k := 0; k < i; k++ {
			if jobs[k].id == j.id {
				j.id += 40 * (k + 1)
			}
		}
		j.shrink.sec = math.Inf(-1)
		if rng.Intn(8) == 0 {
			j.shrink.sec = float64(rng.Intn(4))
		}
		for k := rng.Intn(5); k > 0; k-- {
			b := bid{ok: rng.Intn(6) > 0, blind: rng.Intn(5) == 0, delta: 1 + rng.Intn(8)}
			b.perProc = levels[rng.Intn(len(levels))]
			b.marginal = b.perProc * float64(b.delta)
			j.rungs = append(j.rungs, grid.Row1D(len(j.rungs)+2))
			j.bids = append(j.bids, b)
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// TestHeapFillMatchesScan holds the heap water-filling to the scan it
// replaced: over random bid sets and budgets, with and without an emission
// threshold, every job wins the same rungs for the same gain.
func TestHeapFillMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ties, cut, blind := 0, 0, 0
	for trial := 0; trial < 20000; trial++ {
		r := New(nil)
		jobs := randomViews(rng)
		budget := rng.Intn(40) - 3

		want := scanFill(r, jobs, budget)
		r.jobs = jobs
		if budget > 0 {
			r.expand(budget)
		}
		got := make(map[int]expansion)
		for _, e := range r.exps {
			if e.next > 0 {
				got[e.j.id] = expansion{next: e.next, gain: e.gain}
			}
		}
		if !maps.Equal(got, want) {
			t.Fatalf("trial %d, budget %d: the heap won %v, the scan %v\nviews %+v",
				trial, budget, got, want, jobs)
		}
		if r.priced != 0 {
			t.Fatalf("trial %d: priced %d bids, all were standing", trial, r.priced)
		}

		// Count what the trial exercised: equal levels across ids among the
		// winners, a winner cut off by the budget, a blind rung won.
		seen := map[float64]bool{}
		for id, e := range want {
			for i := range jobs {
				j := &jobs[i]
				if j.id != id {
					continue
				}
				if p := j.bids[e.next-1].perProc; seen[p] {
					ties++
				} else {
					seen[p] = true
				}
				if j.bids[e.next-1].blind {
					blind++
				} else if e.next < len(j.bids) && j.bids[e.next].ok && j.bids[e.next].marginal > 0 {
					cut++
				}
			}
		}
	}
	if ties == 0 || cut == 0 || blind == 0 {
		t.Fatalf("trials exercised %d ties, %d budget cut-offs, %d blind wins; strengthen them", ties, cut, blind)
	}
}

// TestNonFiniteBidsArePassedOver: a Predict hook that answers NaN for one
// job, +Inf for another and -Inf for a third prices no bid for any of them,
// so none is planned, and the job it prices finitely still is. A NaN gain
// used to pass the threshold and then win every round, since nothing
// compares above NaN, and a -Inf time is an infinite gain.
func TestNonFiniteBidsArePassedOver(t *testing.T) {
	r := New(nil)
	r.Predict = func(id int, t grid.Topology) (float64, bool) {
		return []float64{math.NaN(), math.Inf(1), 5, math.Inf(-1)}[id-1], true
	}
	var views []scheduler.ContactView
	for id := 1; id <= 4; id++ {
		views = append(views, runningJob(id, 0, []int{4, 8, 16}, [][2]float64{{4, 10}}, 50))
	}
	r.Rebalance(snapOf(64, 128, nil, views...))
	ds := r.Directives()
	if len(ds) != 1 || ds[0].JobID != 3 || ds[0].To != grid.Row1D(8) || !finite(ds[0].Gain) {
		t.Fatalf("want one expansion of job 3 to 8x1 with a finite gain, got %+v", ds)
	}
	for i := range r.jobs {
		if j := &r.jobs[i]; j.id != 3 && (len(j.bids) != 1 || j.bids[0].ok) {
			t.Fatalf("job %d: bids %+v, want one unpriceable", j.id, j.bids)
		}
	}
}
