package main

import (
	"fmt"
	"io"
	"slices"
)

// series collects, per workload and end-to-end metric, the values of every
// untraced run in a result file, in the order the file lists them, with the
// runs' seeds and the size they worked at.
type series struct {
	order  []string
	values map[string]map[string][]float64
	seeds  map[string][]int64
	jobs   map[string]int
}

func collect(runs []*runResult) *series {
	s := &series{values: make(map[string]map[string][]float64), seeds: make(map[string][]int64), jobs: make(map[string]int)}
	for _, r := range runs {
		if r.Traced {
			continue // end-to-end figures come from untraced runs only
		}
		m := s.values[r.Workload]
		if m == nil {
			m = make(map[string][]float64)
			s.values[r.Workload] = m
			s.order = append(s.order, r.Workload)
			s.jobs[r.Workload] = r.JobsPerRound
		}
		s.seeds[r.Workload] = append(s.seeds[r.Workload], r.Seed)
		for k, v := range r.EndToEnd {
			m[k] = append(m[k], v)
		}
	}
	return s
}

// printSpreads prints, for every workload and end-to-end metric, the median
// over the runs and the interquartile spread as a share of it, next to the
// metric's bound: the acceptance procedure's view of a --repeat run. The
// spread of a virtual-time outcome is how far the seeds' mixes differ.
func printSpreads(w io.Writer, runs []*runResult) {
	s := collect(runs)
	fmt.Fprintf(w, "\n%-14s %-18s %5s %14s %9s %7s\n", "workload", "metric", "runs", "median", "spread", "bound")
	for _, wl := range s.order {
		for _, d := range workloadNamed(wl).metrics {
			xs := s.values[wl][d.Name]
			note := ""
			switch sp := spread(xs); {
			case d.Exact:
				note = "  (virtual time: differs by seed, repeats exactly per seed)"
			case d.Name != "setup_s" && sp > d.Bound/3:
				note = "  <- above a third of the bound"
			}
			fmt.Fprintf(w, "%-14s %-18s %5d %14.6g %8.2f%% %6.3g%%%s\n",
				wl, d.Name, len(xs), median(xs), 100*spread(xs), 100*d.Bound, note)
		}
	}
}

// worseBy is how much worse b is than a, as a share of a (negative: better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints one row per workload and end-to-end metric of two
// result files (a the base, b the candidate): both medians, their ratio with
// its base, how much worse the candidate is (see verdict), the bound and the
// verdict. It returns the exit code: 1 when any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	fa, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintf(w, "compare: %v\n", err)
		return 2
	}
	return compareRunSets(w, fa.Runs, fb.Runs)
}

// verdict judges one metric of one workload: xa are the base's runs, xb the
// candidate's, sameSeeds whether the two made the same runs. It returns how
// much worse the candidate is, as a share of the base, and one of:
//
//   - regressed: worse than the base by more than the bound.
//   - unresolved: the runs disagree among themselves by more than the bound
//     (interquartile distance), so what they say together is not to be
//     trusted; or the candidate lacks the metric.
//   - changed (virtual-time outcomes only): not worse beyond the bound, yet
//     not the same to the last bit on every seed. The simulator is
//     deterministic, so scheduling policy moved and the change has to say so.
//   - ok otherwise.
//
// Files made on the same seeds are compared run by run, seed against seed,
// and the median of those differences is judged: what a seed's mix does to a
// metric (6 % of sim-rebalance's allocs_per_job) then cancels, and only the
// noise between two runs of one input is left to disagree.
func verdict(d metricDef, xa, xb []float64, sameSeeds bool) (worse float64, v string) {
	ma, mb := median(xa), median(xb)
	if d.Exact && sameSeeds && slices.Equal(xa, xb) {
		return 0, "ok"
	}
	if len(xb) == 0 || ma == 0 {
		return 0, "unresolved"
	}
	worse, noise := worseBy(d, ma, mb), max(spread(xa), spread(xb))
	if sameSeeds {
		diffs := make([]float64, len(xa))
		for i := range xa {
			diffs[i] = worseBy(d, xa[i], xb[i])
		}
		q1, q3 := quartiles(diffs)
		worse, noise = median(diffs), q3-q1
	}
	switch {
	case worse > d.Bound:
		return worse, "regressed"
	case d.Exact:
		return worse, "changed"
	case d.Name != "setup_s" && noise > d.Bound:
		return worse, "unresolved"
	}
	return worse, "ok"
}

func compareRunSets(w io.Writer, runsA, runsB []*runResult) int {
	a, b := collect(runsA), collect(runsB)
	regressed := 0
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %22s %8s %6s  %s\n",
		"workload", "metric", "base", "candidate", "candidate/base", "worse by", "bound", "verdict")
	for _, wl := range a.order {
		def := workloadNamed(wl)
		switch {
		case def == nil:
			fmt.Fprintf(w, "%-14s not a workload of this benchmark\n", wl)
			continue
		case b.values[wl] == nil:
			fmt.Fprintf(w, "%-14s missing from the candidate file\n", wl)
			regressed++
			continue
		case a.jobs[wl] != b.jobs[wl]:
			fmt.Fprintf(w, "%-14s run at different sizes (%d and %d jobs a round): not comparable\n", wl, a.jobs[wl], b.jobs[wl])
			regressed++
			continue
		}
		sameSeeds := slices.Equal(a.seeds[wl], b.seeds[wl])
		for _, d := range def.metrics {
			xa, xb := a.values[wl][d.Name], b.values[wl][d.Name]
			ma, mb := median(xa), median(xb)
			worse, v := verdict(d, xa, xb, sameSeeds)
			if v == "regressed" {
				regressed++
			}
			ratio := 0.0
			if ma != 0 {
				ratio = mb / ma
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %8.4f of %-10.4g %7.2f%% %5.3g%%  %s\n",
				wl, d.Name, ma, mb, ratio, ma, 100*worse, 100*d.Bound, v)
		}
	}
	if regressed > 0 {
		return 1
	}
	return 0
}
