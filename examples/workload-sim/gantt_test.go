package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

func sampleEvents() []scheduler.AllocEvent {
	t22 := grid.Topology{Rows: 2, Cols: 2}
	t23 := grid.Topology{Rows: 2, Cols: 3}
	return []scheduler.AllocEvent{
		{Time: 0, Job: "LU", Kind: "submit", Topo: t22, Busy: 0},
		{Time: 0, Job: "LU", Kind: "start", Topo: t22, Busy: 4},
		{Time: 10, Job: "LU", Kind: "expand", Topo: t23, Busy: 6},
		{Time: 30, Job: "LU", Kind: "shrink", Topo: t22, Busy: 4},
		{Time: 50, Job: "LU", Kind: "end", Topo: t22, Busy: 0},
	}
}

func TestGanttRendersRows(t *testing.T) {
	out := gantt(slices.All(sampleEvents()), 40)
	if !strings.Contains(out, "LU") {
		t.Fatalf("missing job row: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 { // one job row + axis
		t.Fatalf("%d lines: %q", len(lines), out)
	}
	// The expansion period must render denser glyphs than the 4-proc period.
	row := lines[0]
	if !strings.ContainsRune(row, '█') {
		t.Errorf("expansion period should reach full shade: %q", row)
	}
}

func TestGanttEmpty(t *testing.T) {
	if out := gantt(slices.All([]scheduler.AllocEvent(nil)), 10); !strings.Contains(out, "no events") {
		t.Errorf("empty gantt: %q", out)
	}
}

func TestGanttMultipleJobs(t *testing.T) {
	t22 := grid.Topology{Rows: 2, Cols: 2}
	events := append(sampleEvents(),
		scheduler.AllocEvent{Time: 20, Job: "MM", Kind: "start", Topo: t22, Busy: 8},
		scheduler.AllocEvent{Time: 40, Job: "MM", Kind: "error", Topo: t22, Busy: 4},
	)
	out := gantt(slices.All(events), 40)
	if !strings.Contains(out, "MM") {
		t.Fatalf("missing MM row: %q", out)
	}
}
