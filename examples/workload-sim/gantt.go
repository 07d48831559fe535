package main

// This file renders the scheduler's allocation history as an ASCII Gantt
// chart, the terminal counterpart of Figures 4 and 5.

import (
	"fmt"
	"iter"
	"sort"
	"strings"

	"repro/internal/scheduler"
)

// gantt shade levels from idle to fully allocated.
var shades = []rune{' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'}

// gantt renders the allocation history as an ASCII chart: one row per job,
// column = time bucket, glyph intensity = processors held (relative to the
// maximum any job holds). Deterministic and dependency-free, for terminal
// inspection of Figure 4(a)/5(a)-style histories. It reads the trace once,
// as an iterator such as a run's Result.Events.
func gantt(events iter.Seq2[int, scheduler.AllocEvent], width int) string {
	if width <= 0 {
		width = 72
	}
	// Build per-job step functions of processor count, jobs in order of
	// first appearance.
	type step struct {
		t     float64
		procs int
	}
	end := 0.0
	perJob := map[string][]step{}
	var jobOrder []string
	maxProcs := 1
	for _, e := range events {
		end = max(end, e.Time)
		if _, seen := perJob[e.Job]; !seen {
			jobOrder = append(jobOrder, e.Job)
			perJob[e.Job] = nil
		}
		var p int
		switch e.Kind {
		case "start", "expand", "shrink":
			p = e.Topo.Count()
		case "end", "error":
			p = 0
		default:
			continue // submit: not yet allocated
		}
		perJob[e.Job] = append(perJob[e.Job], step{e.Time, p})
		maxProcs = max(maxProcs, p)
	}
	if end == 0 || len(jobOrder) == 0 {
		return "(no events)\n"
	}

	var b strings.Builder
	nameW := 0
	for _, name := range jobOrder {
		if len(name) > nameW {
			nameW = len(name)
		}
	}
	for _, name := range jobOrder {
		steps := perJob[name]
		sort.SliceStable(steps, func(i, j int) bool { return steps[i].t < steps[j].t })
		fmt.Fprintf(&b, "%-*s |", nameW, name)
		for col := 0; col < width; col++ {
			t := end * (float64(col) + 0.5) / float64(width)
			procs := 0
			for _, s := range steps {
				if s.t <= t {
					procs = s.procs
				}
			}
			idx := 0
			if procs > 0 {
				idx = 1 + procs*(len(shades)-2)/maxProcs
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
			}
			b.WriteRune(shades[idx])
		}
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "%-*s  0%*s%.0fs\n", nameW, "", width-4, "t=", end)
	return b.String()
}
