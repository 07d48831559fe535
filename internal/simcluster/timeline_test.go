package simcluster

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// popAll drains the timeline, returning the job fields in pop order.
func popAll(q *timeline) []int {
	var jobs []int
	for e, ok := q.pop(); ok; e, ok = q.pop() {
		jobs = append(jobs, e.job)
	}
	return jobs
}

// TestTimelineOrdersByTime: distinct timestamps pushed out of order pop
// in time order, and the clock follows each pop.
func TestTimelineOrdersByTime(t *testing.T) {
	var q timeline
	times := []float64{5, 1, 3, 2, 4}
	for i, tm := range times {
		q.at(tm, evArrival, i)
	}
	var got []float64
	for e, ok := q.pop(); ok; e, ok = q.pop() {
		if q.now != e.time {
			t.Fatalf("clock %v after popping an event at %v", q.now, e.time)
		}
		got = append(got, e.time)
	}
	if len(got) != len(times) {
		t.Fatalf("popped %d of %d events", len(got), len(times))
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
}

// TestTimelineFIFOAmongEqualTimestamps: events carrying the same timestamp
// come out in insertion order — the determinism guarantee the simulator's
// byte-identical replays rely on.
func TestTimelineFIFOAmongEqualTimestamps(t *testing.T) {
	var q timeline
	const n = 100
	for i := 0; i < n; i++ {
		q.at(7, evResizePoint, i)
	}
	// Interleave earlier and later events to exercise heap movement.
	q.at(1, evArrival, -1)
	q.at(9, evResizeDone, -2)
	want := []int{-1}
	for i := 0; i < n; i++ {
		want = append(want, i)
	}
	want = append(want, -2)
	if got := popAll(&q); !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
	if q.now != 9 {
		t.Fatalf("clock %v after the last pop, want 9", q.now)
	}
}

// TestTimelineRandomizedAgainstSort pops 5 000 events with many colliding
// timestamps against a stable sort of the same pushes.
func TestTimelineRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q timeline
	type ref struct {
		t   float64
		job int
	}
	var want []ref
	for i := 0; i < 5000; i++ {
		tm := float64(rng.Intn(50))
		q.at(tm, evArrival, i)
		want = append(want, ref{tm, i})
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].t < want[j].t })
	for i, w := range want {
		e, ok := q.pop()
		if !ok || e.time != w.t || e.job != w.job {
			t.Fatalf("pop %d: got (%v, job %d), want (%v, job %d)", i, e.time, e.job, w.t, w.job)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop returned an event after the timeline drained")
	}
}

// TestTimelineSameTimePushRunsAfterQueued: an event scheduled at the
// current time while that time's events are being dispatched runs after
// everything already queued at that time, and before any later time.
func TestTimelineSameTimePushRunsAfterQueued(t *testing.T) {
	var q timeline
	for job := 0; job < 3; job++ {
		q.at(10, evArrival, job)
	}
	q.at(11, evArrival, 4)
	var order []int
	for e, ok := q.pop(); ok; e, ok = q.pop() {
		order = append(order, e.job)
		if e.job == 0 {
			q.at(q.now, evArrival, 3)
		}
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if q.now != 11 {
		t.Fatalf("clock %v, want 11", q.now)
	}
}

// TestTimelineClampsThePast: an event scheduled before the clock is
// delivered at the clock, so time never runs backwards.
func TestTimelineClampsThePast(t *testing.T) {
	var q timeline
	q.at(10, evArrival, 0)
	q.at(12, evArrival, 1)
	var times []float64
	for e, ok := q.pop(); ok; e, ok = q.pop() {
		times = append(times, e.time)
		if e.job == 0 {
			q.at(0, evArrival, 99)
		}
	}
	if want := []float64{10, 10, 12}; !slices.Equal(times, want) {
		t.Fatalf("times %v, want %v", times, want)
	}
}

// TestTimelineInterleavedAgainstSortedReference interleaves random pushes,
// pops and dueBy asks, most pushes landing on one of a few timestamps and
// some before the clock, and checks every pop and every answer against the
// head of a reference kept sorted by (time, seq). A pop leaves its event
// held at the root, so the steps reach every way a held root goes: a push
// right after the pop fills its hole, a second pop with no push between,
// and a dueBy while it is held each remove it.
func TestTimelineInterleavedAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q timeline
	var ref []event // pending events in (time, seq) order
	byKey := func(a, b event) int {
		if c := cmp.Compare(a.time, b.time); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}
	pop := func(step int) {
		want := ref[0]
		ref = ref[1:]
		got, ok := q.pop()
		if !ok || got != want || q.now != want.time {
			t.Fatalf("step %d: popped %+v (ok %v, clock %v), want %+v", step, got, ok, q.now, want)
		}
	}
	var filled, popped, asked int // steps that met a held root, by what they did
	for step := 0; step < 20000; step++ {
		switch k := rng.Intn(10); {
		case k == 0:
			tm := q.now + float64(rng.Intn(3))
			if q.held {
				asked++
			}
			if got, want := q.dueBy(tm), len(ref) == 0 || tm <= ref[0].time; got != want {
				t.Fatalf("step %d: dueBy(%v) = %v, want %v", step, tm, got, want)
			}
			continue
		case len(ref) > 0 && k < 5:
			if q.held {
				popped++
			}
			pop(step)
			continue
		}
		if q.held {
			filled++
		}
		tm := q.now + float64(rng.Intn(4)-1) // a step behind the clock is clamped to it
		q.at(tm, evResizePoint, step)
		e := event{time: max(tm, q.now), seq: q.seq, job: step, kind: evResizePoint}
		i, _ := slices.BinarySearchFunc(ref, e, byKey)
		ref = slices.Insert(ref, i, e)
	}
	for step := 0; len(ref) > 0; step++ {
		pop(step)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop returned an event after the timeline drained")
	}
	if min(filled, popped, asked) < 100 {
		t.Fatalf("a held root met %d pushes, %d pops and %d dueBy asks: each wants 100", filled, popped, asked)
	}
}
