package scheduler

import (
	"runtime"
	"testing"
	"unsafe"
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
// record that grows past 384 bytes costs the next class up, about 11 %,
// on every chunk.
func TestJobRecordFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof([recordChunk]jobRecord{}); n > 24<<10 {
		t.Fatalf("a chunk of %d job records is %d bytes, over the 24 KB size class", recordChunk, n)
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
// same cost or a new one, allocates nothing; only a new pair pays for its
// key.
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
