package scheduler

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestEventQueueOrdersByTime(t *testing.T) {
	var q EventQueue
	times := []float64{5, 1, 3, 2, 4}
	for i, tm := range times {
		q.Push(tm, EvArrival, i)
	}
	var got []float64
	for e, ok := q.Pop(); ok; e, ok = q.Pop() {
		got = append(got, e.Time)
	}
	if len(got) != len(times) {
		t.Fatalf("popped %d of %d events", len(got), len(times))
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
}

// TestEventQueueFIFOAmongEqualTimestamps: events carrying the same
// timestamp must come out in insertion order — the determinism guarantee
// the simulator's byte-identical replays rely on.
func TestEventQueueFIFOAmongEqualTimestamps(t *testing.T) {
	var q EventQueue
	const n = 100
	for i := 0; i < n; i++ {
		q.Push(7.0, EvResizePoint, i)
	}
	// Interleave earlier and later events to exercise heap movement.
	q.Push(1.0, EvArrival, -1)
	q.Push(9.0, EvCompletion, -2)
	first, _ := q.Pop()
	if first.Time != 1.0 {
		t.Fatalf("first event at %v, want 1.0", first.Time)
	}
	for i := 0; i < n; i++ {
		e, _ := q.Pop()
		if e.Time != 7.0 || e.Job != i {
			t.Fatalf("tie %d: got job %d at %v, want FIFO order", i, e.Job, e.Time)
		}
	}
	last, _ := q.Pop()
	if last.Time != 9.0 || len(q.h) != 0 {
		t.Fatalf("last event %+v, len %d", last, len(q.h))
	}
}

func TestEventQueueRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var q EventQueue
	type ref struct {
		t   float64
		seq int
	}
	var want []ref
	for i := 0; i < 5000; i++ {
		tm := float64(rng.Intn(50)) // many collisions
		q.Push(tm, EvArrival, i)
		want = append(want, ref{tm, i})
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].t < want[j].t })
	for i, w := range want {
		e, ok := q.Pop()
		if !ok || e.Time != w.t || e.Job != w.seq {
			t.Fatalf("pop %d: got (%v, job %d), want (%v, job %d)", i, e.Time, e.Job, w.t, w.seq)
		}
	}
}

// drain dispatches tick after tick until the queue is empty or a handler
// fails, the way the simulator's event loop does.
func drain(eng *Engine) error {
	for {
		ok, err := eng.StepTick()
		if err != nil || !ok {
			return err
		}
	}
}

func TestEnginePeekAndClock(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Handle(EvArrival, func(e Event) error {
		order = append(order, e.Job)
		if e.Job == 0 {
			// Handlers may schedule more events.
			eng.At(e.Time+5, EvArrival, 2)
		}
		return nil
	})
	eng.At(10, EvArrival, 0)
	eng.At(12, EvArrival, 1)
	if tm, ok := eng.PeekTime(); !ok || tm != 10 {
		t.Fatalf("PeekTime = %v, %v; want 10, true", tm, ok)
	}
	if err := drain(eng); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if eng.now != 15 {
		t.Fatalf("clock %v, want 15", eng.now)
	}
	if _, ok := eng.PeekTime(); ok {
		t.Fatal("PeekTime reports an event after the queue drained")
	}
}

func TestEngineRejectsUnhandledKind(t *testing.T) {
	eng := NewEngine()
	eng.At(1, EvCompletion, 0)
	if err := drain(eng); err == nil {
		t.Fatal("expected error for unhandled event kind")
	}
}

func TestEngineNeverRunsBackwards(t *testing.T) {
	eng := NewEngine()
	var times []float64
	eng.Handle(EvArrival, func(e Event) error {
		times = append(times, e.Time)
		if len(times) == 1 {
			eng.At(0, EvArrival, 99) // in the past: clamped to now
		}
		return nil
	})
	eng.At(10, EvArrival, 0)
	if err := drain(eng); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[1] < times[0] {
		t.Fatalf("times %v regress", times)
	}
}

// TestStepTickDefersSameTimePushes pins StepTick's batch boundary: an
// event a handler pushes at the current timestamp is not part of the
// batch being dispatched; it comes in a later StepTick of the same tick,
// after everything already queued at that time.
func TestStepTickDefersSameTimePushes(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Handle(EvArrival, func(e Event) error {
		order = append(order, e.Job)
		if e.Job == 0 {
			eng.At(e.Time, EvArrival, 3)
		}
		return nil
	})
	for job := 0; job < 3; job++ {
		eng.At(10, EvArrival, job)
	}
	eng.At(11, EvArrival, 4)
	for _, want := range [][]int{{0, 1, 2}, {0, 1, 2, 3}, {0, 1, 2, 3, 4}} {
		if ok, err := eng.StepTick(); !ok || err != nil {
			t.Fatalf("StepTick = %v, %v", ok, err)
		}
		if !slices.Equal(order, want) {
			t.Fatalf("after a StepTick: order %v, want %v", order, want)
		}
	}
	if eng.now != 11 {
		t.Fatalf("clock %v, want 11", eng.now)
	}
}
