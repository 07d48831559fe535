package perfmodel

import "math"

// This file is the learned half of the performance model: where IterTime
// predicts iteration times from first principles (flop rates, bandwidths),
// FitSpeedup learns a per-job speedup curve from the iteration times the
// Performance Profiler actually observed. The global rebalancer (package
// internal/scheduler/rebalance) fits one curve per running job at every
// planning tick and uses it to score candidate allocations the job has
// never run on — replacing the published policy's one-step probing with
// model-guided jumps.

// SpeedupObs is one observed sample for the curve fitter: the job ran on
// Procs processors and averaged Seconds per outer iteration there. The
// rebalancer derives these from Profile.Visits (one sample per distinct
// processor count, most recent visit wins).
type SpeedupObs struct {
	Procs   int
	Seconds float64
}

// Curve is a fitted iteration-time model in the Amdahl/Downey family,
//
//	T(p) = Serial + Parallel/p + Contention*p
//
// with all three coefficients non-negative: Serial is the Amdahl serial
// fraction's absolute cost, Parallel the perfectly divisible work, and
// Contention the linear overhead term that makes very large allocations
// slower (Downey's curves flatten and turn; perfmodel.Params carries the
// same term for the synthetic model). Non-negativity makes the predicted
// time strictly positive and the implied speedup monotone non-decreasing
// up to the knee — properties the planner's water-filling relies on
// (pinned by the property tests in speedup_test.go).
type Curve struct {
	Serial     float64
	Parallel   float64
	Contention float64
	// Points is the number of distinct processor counts the fit used.
	// A 1-point "fit" is a flat curve (Serial only); 2 points fit
	// Serial+Parallel; 3 or more fit all terms.
	Points int
}

// Valid reports whether the curve came from at least one observation.
func (c Curve) Valid() bool { return c.Points > 0 }

// Eval predicts the iteration time on p processors. It returns false for
// p < 1 or an unfitted curve; predictions are always finite and positive
// for a curve built by FitSpeedup.
func (c Curve) Eval(p int) (float64, bool) {
	if p < 1 || !c.Valid() {
		return 0, false
	}
	return c.Serial + c.Parallel/float64(p) + c.Contention*float64(p), true
}

// Knee returns the processor count beyond which the fitted curve predicts
// no further improvement: the minimizer of T(p). With no contention term
// the curve improves forever and Knee returns MaxInt; an unfitted curve
// returns 0.
func (c Curve) Knee() int {
	if !c.Valid() {
		return 0
	}
	if c.Contention <= 0 || c.Parallel <= 0 {
		if c.Parallel <= 0 {
			return 1 // flat (or contention-only) curve: more procs never help
		}
		return math.MaxInt
	}
	// T'(p) = -Parallel/p² + Contention = 0  ⇒  p* = sqrt(Parallel/Contention).
	// T is integer-evaluated, so compare the two integer neighbors.
	star := math.Sqrt(c.Parallel / c.Contention)
	lo := int(star)
	if lo < 1 {
		return 1
	}
	tl, _ := c.Eval(lo)
	th, _ := c.Eval(lo + 1)
	if th < tl {
		return lo + 1
	}
	return lo
}

// FitSpeedup fits a Curve to the observed samples by least squares on the
// basis {1, 1/p, p}, restricted to non-negative coefficients: every subset
// of the basis is solved in closed form and the feasible solution with the
// smallest residual wins (exact non-negative least squares for 3 terms).
// Duplicate processor counts are averaged first. The fit is deterministic:
// identical observations produce a bit-identical curve.
//
// Degenerate inputs degrade gracefully rather than failing: a single
// distinct processor count yields a flat curve at the observed time, two
// counts fit the Amdahl pair {1, 1/p} only. Samples with Procs < 1,
// non-positive, NaN or infinite Seconds are dropped; with nothing left the
// zero (invalid) Curve is returned.
func FitSpeedup(obs []SpeedupObs) Curve {
	// Aggregate to one mean sample per distinct processor count, kept in
	// ascending count order. Each count's sum accumulates in observation
	// order, so the means — and with them every bit of the fit — do not
	// depend on how the samples are stored; profiles rarely visit more than
	// a handful of counts, so the samples live on the stack.
	var buf [8]sample
	pts := buf[:0]
	for _, o := range obs {
		if o.Procs < 1 || o.Seconds <= 0 || math.IsNaN(o.Seconds) || math.IsInf(o.Seconds, 0) {
			continue
		}
		i := 0
		for i < len(pts) && pts[i].procs < o.Procs {
			i++
		}
		if i == len(pts) || pts[i].procs != o.Procs {
			pts = append(pts, sample{})
			copy(pts[i+1:], pts[i:])
			pts[i] = sample{procs: o.Procs}
		}
		pts[i].y += o.Seconds
		pts[i].n++
	}
	if len(pts) == 0 {
		return Curve{}
	}
	for i := range pts {
		pts[i].x = float64(pts[i].procs)
		pts[i].y /= float64(pts[i].n)
	}

	if len(pts) == 1 {
		return Curve{Serial: pts[0].y, Points: 1}
	}

	// With only two distinct counts the three-term system is
	// underdetermined, so restrict to pairs and singletons.
	subsets := fitSubsets[:]
	if len(pts) < 3 {
		subsets = subsets[1:]
	}

	bestRSS := math.Inf(1)
	var best [3]float64 // coefficient per basis term
	found := false
	for _, terms := range subsets {
		coef, ok := solveLS(terms, pts)
		if !ok {
			continue
		}
		feasible := true
		for _, c := range coef[:len(terms)] {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		var full [3]float64
		for i, t := range terms {
			full[t] = coef[i]
		}
		rss := 0.0
		for _, s := range pts {
			pred := full[0] + full[1]/s.x + full[2]*s.x
			d := s.y - pred
			rss += d * d
		}
		if rss < bestRSS-1e-12 {
			bestRSS = rss
			best, found = full, true
		}
	}
	if !found {
		// Every subset infeasible (cannot happen for positive ys: the
		// constant-only fit is always non-negative) — flat fallback.
		mean := 0.0
		for _, s := range pts {
			mean += s.y
		}
		return Curve{Serial: mean / float64(len(pts)), Points: len(pts)}
	}
	return Curve{Serial: best[0], Parallel: best[1], Contention: best[2], Points: len(pts)}
}

// sample is one aggregated observation: the mean seconds y at x = procs
// processors (y holds the running sum of n samples until the mean is taken).
type sample struct {
	procs, n int
	x, y     float64
}

// fitSubsets lists the candidate term subsets of the basis, richest first.
var fitSubsets = [...][]int{{0, 1, 2}, {0, 1}, {1, 2}, {0, 2}, {0}, {1}, {2}}

// basis returns the regressor value of term t at processor count x.
func basis(t int, x float64) float64 {
	switch t {
	case 0:
		return 1
	case 1:
		return 1 / x
	default:
		return x
	}
}

// solveLS solves the normal equations of an ordinary least-squares fit on
// the selected basis terms by Gaussian elimination with partial pivoting;
// the first len(terms) entries of the result are the coefficients. ok is
// false when the system is singular.
func solveLS(terms []int, pts []sample) (out [3]float64, ok bool) {
	k := len(terms)
	// Build A^T A (k×k) and A^T y (k).
	var m [3][3]float64
	var rhs [3]float64
	for _, s := range pts {
		for i := 0; i < k; i++ {
			bi := basis(terms[i], s.x)
			rhs[i] += bi * s.y
			for j := 0; j < k; j++ {
				m[i][j] += bi * basis(terms[j], s.x)
			}
		}
	}
	// Gaussian elimination.
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return out, false
		}
		m[col], m[pivot] = m[pivot], m[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		for r := col + 1; r < k; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c < k; c++ {
				m[r][c] -= f * m[col][c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	for i := k - 1; i >= 0; i-- {
		v := rhs[i]
		for j := i + 1; j < k; j++ {
			v -= m[i][j] * out[j]
		}
		out[i] = v / m[i][i]
	}
	return out, true
}
