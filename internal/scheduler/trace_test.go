package scheduler

import (
	"reflect"
	"testing"
	"unsafe"
)

// eventAt materializes event i of c's trace.
func eventAt(c *Core, i int) AllocEvent { return c.traceView().at(i) }

// TestAllocRecordIsCompact pins the trace's storage: a record of at most
// 32 bytes that holds no pointer, so the collector never scans the trace.
func TestAllocRecordIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(allocRecord{}); n > 32 {
		t.Errorf("allocRecord is %d bytes, want <= 32", n)
	}
	var walk func(reflect.Type) bool
	walk = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			return true
		case reflect.Array:
			return walk(typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				if walk(typ.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	if walk(reflect.TypeOf(allocRecord{})) {
		t.Error("allocRecord holds a pointer")
	}
	if len(eventKinds) != int(evError)+1 {
		t.Errorf("%d kind names for %d kinds", len(eventKinds), evError+1)
	}
}

// TestEventsReadAllocatesNothing reads a whole trace through the iterator
// and checks every field against what the core did.
func TestEventsReadAllocatesNothing(t *testing.T) {
	c := NewCore(8, false)
	a, _, _ := c.Submit(spec("a", topo(1, 2), 12000), 0)
	b, _, _ := c.Submit(spec("b", topo(2, 2), 1000), 1)
	c.Contact(a.ID, topo(1, 2), 130, 0, 10)
	c.ResizeComplete(a.ID, 8, 10)
	c.Fail(b.ID, 20)
	c.Finish(a.ID, 50)
	want := []AllocEvent{
		{Time: 0, JobID: a.ID, Job: "a", Kind: "submit", Topo: topo(1, 2), Busy: 0},
		{Time: 0, JobID: a.ID, Job: "a", Kind: "start", Topo: topo(1, 2), Busy: 2},
		{Time: 1, JobID: b.ID, Job: "b", Kind: "submit", Topo: topo(2, 2), Busy: 2},
		{Time: 1, JobID: b.ID, Job: "b", Kind: "start", Topo: topo(2, 2), Busy: 6},
		{Time: 10, JobID: a.ID, Job: "a", Kind: "expand", Topo: topo(2, 2), Busy: 8},
		{Time: 20, JobID: b.ID, Job: "b", Kind: "error", Topo: topo(2, 2), Busy: 4},
		{Time: 50, JobID: a.ID, Job: "a", Kind: "end", Topo: topo(2, 2), Busy: 0},
	}
	if c.EventCount() != len(want) {
		t.Fatalf("%d events, want %d", c.EventCount(), len(want))
	}
	for i, e := range c.Events {
		if e != want[i] || eventAt(c, i) != e {
			t.Errorf("event %d: %+v, want %+v", i, e, want[i])
		}
	}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		for _, e := range c.Events {
			n += len(e.Job) + len(e.Kind)
		}
	}); allocs != 0 {
		t.Errorf("reading the trace allocates %v times", allocs)
	}
}

// TestReserveEventsFollowsTrace checks that a reservation is room in a
// traced core and nothing in an untraced one.
func TestReserveEventsFollowsTrace(t *testing.T) {
	c := NewCore(8, false)
	c.ReserveEvents(100)
	if cap(c.events) < 100 {
		t.Errorf("traced core reserved room for %d events, want 100", cap(c.events))
	}
	c = NewCore(8, false)
	c.DisableTrace()
	c.ReserveEvents(100)
	c.Submit(spec("a", topo(1, 2), 1000), 0)
	if cap(c.events) != 0 {
		t.Errorf("untraced core holds room for %d events", cap(c.events))
	}
}
