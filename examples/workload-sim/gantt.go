package main

// This file renders the scheduler's allocation history as an ASCII Gantt
// chart, the terminal counterpart of Figures 4 and 5.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/scheduler"
)

// gantt shade levels from idle to fully allocated.
var shades = []rune{' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'}

// gantt renders the allocation history as an ASCII chart: one row per job,
// column = time bucket, glyph intensity = processors held (relative to the
// maximum any job holds). Deterministic and dependency-free, for terminal
// inspection of Figure 4(a)/5(a)-style histories.
func gantt(events []scheduler.AllocEvent, width int) string {
	if width <= 0 {
		width = 72
	}
	end := 0.0
	jobSet := map[string]bool{}
	var jobOrder []string
	for _, e := range events {
		if e.Time > end {
			end = e.Time
		}
		if !jobSet[e.Job] {
			jobSet[e.Job] = true
			jobOrder = append(jobOrder, e.Job)
		}
	}
	if end == 0 || len(jobOrder) == 0 {
		return "(no events)\n"
	}

	// Build per-job step functions of processor count.
	type step struct {
		t     float64
		procs int
	}
	perJob := map[string][]step{}
	maxProcs := 1
	for _, e := range events {
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
		if p > maxProcs {
			maxProcs = p
		}
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
