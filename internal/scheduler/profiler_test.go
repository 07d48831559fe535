package scheduler

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/grid"
)

// TestRecordIterationAllocatesNothing pins the profile's reservation: once
// a job's first iteration has reserved room for the rest, every later one,
// the one that opens a second visit after a resize included, is recorded
// without allocating. The finished visit is clipped to its length, so an
// append to it cannot reach into the open visit's times.
func TestRecordIterationAllocatesNothing(t *testing.T) {
	const iters = 40
	c := NewCore(16, false)
	s := spec("a", topo(2, 2), 8000)
	s.Iterations = iters
	j, _, err := c.Submit(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.recordIteration(j, 100) // the first iteration reserves
	// testing.AllocsPerRun would round a few allocations over many runs
	// down to 0, so count them all.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for n := 1; n < iters; n++ {
		if n == iters/2 {
			j.Topo = topo(2, 4) // resized mid-run: this iteration opens a visit
		}
		c.recordIteration(j, float64(n))
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Errorf("recording %d iterations after the first allocates %d times", iters-1, n)
	}
	p := j.Profile
	if len(p.Visits) != 2 || profiledIters(p) != iters || j.itersDone != iters {
		t.Fatalf("%d visits holding %d iterations (%d counted), want 2 holding %d",
			len(p.Visits), profiledIters(p), j.itersDone, iters)
	}
	first, open := p.Visits[0].IterTimes, p.Visits[1].IterTimes
	if len(first) != iters/2 || cap(first) != len(first) {
		t.Fatalf("first visit holds %d times with capacity %d, want %d clipped", len(first), cap(first), iters/2)
	}
	if open[0] != iters/2 || open[len(open)-1] != iters-1 {
		t.Fatalf("open visit runs %v..%v, want %d..%d", open[0], open[len(open)-1], iters/2, iters-1)
	}
}

// TestReservationIsBounded submits jobs whose spec declares a huge, a
// negative and a zero iteration count, as a client may, and has each report
// one iteration: the reservation that report makes stays small, and every
// job is scheduled and profiled as any other.
func TestReservationIsBounded(t *testing.T) {
	c := NewCore(16, false)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var jobs []*Job
	for _, n := range []int{1 << 40, -5, 0} {
		s := spec("a", topo(1, 2), 8000)
		s.Iterations = n
		j, started, err := c.Submit(s, 0)
		if err != nil {
			t.Fatalf("Iterations %d: %v", n, err)
		}
		if len(started) != 1 || started[0] != j {
			t.Fatalf("Iterations %d: job did not start", n)
		}
		if _, err := c.Contact(j.ID, j.Topo, 10, 0, 1); err != nil {
			t.Fatalf("Iterations %d: %v", n, err)
		}
		jobs = append(jobs, j)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("three submits and contacts allocated %d bytes", grew)
	}
	for _, j := range jobs {
		if v := j.Profile.Current(); v == nil || len(v.IterTimes) != 1 || v.IterTimes[0] != 10 {
			t.Errorf("Iterations %d: profile %+v, want one visit holding 10", j.Spec.Iterations, j.Profile.Visits)
		}
		if got, want := remainingIters(j), j.Spec.Iterations-1; got != want {
			t.Errorf("Iterations %d: %d iterations remain, want %d", j.Spec.Iterations, got, want)
		}
	}
}

// TestJobRecordFitsSizeClass pins the arena's chunk of job records, each the
// Job with its profile and first two visits, to the 24 KB size class: a
// chunk that grows past it costs the next class up, about 11 %, on every
// chunk. It counts what the runtime allocates, so the header the runtime
// puts before an object with pointers is counted too.
func TestJobRecordFitsSizeClass(t *testing.T) {
	var a jobArena
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	a.newJob()
	runtime.ReadMemStats(&m1)
	if n := m1.TotalAlloc - m0.TotalAlloc; n > 24<<10 {
		t.Fatalf("a chunk of %d job records of %d bytes costs %d bytes, over the 24 KB size class",
			recordChunk, unsafe.Sizeof(jobRecord{}), n)
	}
}

// TestNeighbouringReservationsStayApart carves two jobs' reservations side
// by side from one chunk and has each record past its reservation: the
// append that overflows one must reallocate rather than write into the
// other's times.
func TestNeighbouringReservationsStayApart(t *testing.T) {
	const iters = 4
	c := NewCore(16, false)
	var jobs [2]*Job
	for i := range jobs {
		s := spec("a", topo(1, 2), 8000)
		s.Iterations = iters
		j, _, err := c.Submit(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
		c.recordIteration(j, float64(100*i)) // each first iteration reserves
	}
	a, b := jobs[0].Profile.Visits[0].IterTimes, jobs[1].Profile.Visits[0].IterTimes
	if gap := uintptr(unsafe.Pointer(&b[:1][0])) - uintptr(unsafe.Pointer(&a[:1][0])); gap != iters*8 {
		t.Fatalf("the second reservation starts %d bytes after the first, want %d: not carved side by side", gap, iters*8)
	}
	for n := 1; n <= 2*iters; n++ {
		for i, j := range jobs {
			c.recordIteration(j, float64(100*i+n))
		}
	}
	for i, j := range jobs {
		got := j.Profile.Visits[0].IterTimes
		if len(got) != 2*iters+1 {
			t.Fatalf("job %d holds %d times, want %d", i, len(got), 2*iters+1)
		}
		for n, v := range got {
			if want := float64(100*i + n); v != want {
				t.Fatalf("job %d time %d is %v, want %v: a neighbour wrote into its reservation", i, n, v, want)
			}
		}
	}
}

// TestRecordRedistReusesItsKey: re-recording a pair already on file, at the
// same cost or a new one, rewrites it in place and allocates nothing.
func TestRecordRedistReusesItsKey(t *testing.T) {
	p := NewProfile()
	from, to := topo(2, 2), topo(2, 4)
	p.RecordRedist(from, to, 1)
	cost := 1.0
	if n := testing.AllocsPerRun(100, func() {
		cost++
		p.RecordRedist(from, to, cost)
	}); n != 0 {
		t.Errorf("re-recording an existing pair allocates %.1f times, want 0", n)
	}
	if got, ok := p.RedistCost(from, to); !ok || got != cost || len(p.Redist) != 1 {
		t.Fatalf("Redist %v, want only %v->%v at %v", p.Redist, from, to, cost)
	}
}

// TestCarvedRedistAllocatesNothing: in room carved from the arena, recording
// a new pair, re-recording a pair on file and looking a pair up allocate
// nothing.
func TestCarvedRedistAllocatesNothing(t *testing.T) {
	var a jobArena
	p := a.newJob().Profile
	p.RecordRedist(topo(1, 2), topo(2, 2), 1)
	p.Redist = grow(&a.pairs, p.Redist)
	if cap(p.Redist) != growFirst {
		t.Fatalf("the first carve gives room for %d pairs, want %d", cap(p.Redist), growFirst)
	}
	from, to := topo(2, 2), topo(2, 4)
	if n := testing.AllocsPerRun(100, func() {
		p.Redist = p.Redist[:1]
		p.RecordRedist(from, to, 2) // a new pair
		p.RecordRedist(from, to, 3) // the same pair again
		if v, ok := p.RedistCost(from, to); !ok || v != 3 {
			t.Fatalf("RedistCost = %v/%v, want 3", v, ok)
		}
	}); n != 0 {
		t.Errorf("recording into carved room allocates %.1f times, want 0", n)
	}
}

// TestResizingJobAllocatesNothing pins the carved growth of a resizing
// job's profile: once the arena's chunks exist, a job that moves through
// more visits and more redistribution pairs than its record holds records
// every iteration, visit and cost without an allocation of its own, and
// jobs carved side by side keep their own visits and pairs.
func TestResizingJobAllocatesNothing(t *testing.T) {
	const moves = 12
	chain := []grid.Topology{topo(1, 2), topo(2, 2), topo(2, 4), topo(4, 4)}
	c := NewCore(64, false)
	submit := func() *Job {
		s := spec("a", chain[0], 8000)
		s.Iterations = 2 * moves
		j, _, err := c.Submit(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.recordIteration(j, 0) // the first iteration reserves
		return j
	}
	// tour moves j up and down the chain, one iteration per stay: moves
	// visits past the first and six distinct pairs, some recorded again.
	tour := func(j *Job, base float64) {
		for m := 1; m <= moves; m++ {
			k := m % 6
			if k > 3 {
				k = 6 - k
			}
			j.resizeFrom, j.Topo = j.Topo, chain[k]
			c.running.finishResize(j, base+float64(m), &c.arena)
			c.recordIteration(j, base+float64(m))
		}
	}
	tour(submit(), 0) // the first tour starts the visit and pair chunks
	jobs := []*Job{submit(), submit()}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, j := range jobs {
		tour(j, float64(100*(i+1)))
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Errorf("two tours of %d resizes each allocate %d times", moves, n)
	}
	for i, j := range jobs {
		p, base := j.Profile, float64(100*(i+1))
		if len(p.Visits) != moves+1 || len(p.Redist) != 6 {
			t.Fatalf("job %d: %d visits and %d pairs, want %d and 6", i, len(p.Visits), len(p.Redist), moves+1)
		}
		for m, v := range p.Visits[1:] {
			if len(v.IterTimes) != 1 || v.IterTimes[0] != base+float64(m+1) {
				t.Fatalf("job %d: visit %d holds %v, want [%v]", i, m+1, v.IterTimes, base+float64(m+1))
			}
		}
		// The last six moves make the six pairs once each, so each pair
		// costs what its move among them did.
		for m := moves - 5; m <= moves; m++ {
			from, to := p.Visits[m-1].Topo, p.Visits[m].Topo
			if v, ok := p.RedistCost(from, to); !ok || v != base+float64(m) {
				t.Fatalf("job %d: %v->%v costs %v/%v, want %v", i, from, to, v, ok, base+float64(m))
			}
		}
	}
}
