// Package grid provides processor-topology math for ReSHAPE: divisors,
// the divisibility-constrained growth chains of the paper's Table 2, and
// the expansion rule that adds processors to the smallest row or column of
// an existing topology (§3.1).
package grid

import (
	"sort"
	"strconv"
)

// Topology is a 2-D processor grid with Rows*Cols processors. A 1-D row
// topology has Cols == 1; a 1-D column topology has Rows == 1.
type Topology struct {
	Rows, Cols int
}

// Count returns the number of processors in the topology.
func (t Topology) Count() int { return t.Rows * t.Cols }

// String formats the topology as "RxC".
func (t Topology) String() string {
	var buf [24]byte
	return string(t.Append(buf[:0]))
}

// Append appends the "RxC" form of the topology to b. The bytes are a
// persisted format: decision reasons, trace lines and the Performance
// Profiler's redistribution-cost keys in snapshots all carry them.
func (t Topology) Append(b []byte) []byte {
	b = strconv.AppendInt(b, int64(t.Rows), 10)
	b = append(b, 'x')
	return strconv.AppendInt(b, int64(t.Cols), 10)
}

// IsValid reports whether both dimensions are positive.
func (t Topology) IsValid() bool { return t.Rows >= 1 && t.Cols >= 1 }

// Aspect returns the aspect ratio max(dim)/min(dim) as a float; 1.0 is a
// perfect square.
func (t Topology) Aspect() float64 {
	if !t.IsValid() {
		return 0
	}
	a, b := t.Rows, t.Cols
	if a > b {
		a, b = b, a
	}
	return float64(b) / float64(a)
}

// Normalized returns the topology with Rows <= Cols.
func (t Topology) Normalized() Topology {
	if t.Rows > t.Cols {
		return Topology{t.Cols, t.Rows}
	}
	return t
}

// Row1D returns the 1-D topology with p processors in a single column
// (row-distributed data).
func Row1D(p int) Topology { return Topology{Rows: p, Cols: 1} }

// Divisors returns the sorted positive divisors of n.
func Divisors(n int) []int {
	if n <= 0 {
		return nil
	}
	var ds []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
			if d != n/d {
				ds = append(ds, n/d)
			}
		}
	}
	sort.Ints(ds)
	return ds
}

// nextDivisor returns the smallest divisor of n strictly greater than d,
// or 0 if none exists.
func nextDivisor(n, d int) int {
	for _, x := range Divisors(n) {
		if x > d {
			return x
		}
	}
	return 0
}

// Grow applies the paper's expansion rule to a nearly-square topology whose
// dimensions divide the problem size n: the smallest dimension is raised to
// the next divisor of n. The result keeps Rows <= Cols. It returns the same
// topology and false when no further growth is possible.
//
//lint:allow testonly oracle: the one-step rule TestGrowMonotone and workload's TestGrowthChainMatchesGrowLoop hold GrowthChain to
func Grow(t Topology, n int) (Topology, bool) {
	t = t.Normalized()
	next := nextDivisor(n, t.Rows)
	if next == 0 {
		return t, false
	}
	return Topology{next, t.Cols}.Normalized(), true
}

// GrowthChain enumerates the sequence of 2-D configurations for problem size
// n starting from the given topology, growing by the smallest-dimension rule
// until the processor count would exceed maxProcs. The starting topology is
// included. This reproduces the configuration chains of the paper's Table 2.
// Each step is Grow's, with the divisors of n computed once per chain.
func GrowthChain(start Topology, n, maxProcs int) []Topology {
	cur := start.Normalized()
	chain := []Topology{cur}
	ds := Divisors(n)
	for {
		i := sort.SearchInts(ds, cur.Rows+1) // nextDivisor(n, cur.Rows)
		if i == len(ds) {
			break
		}
		next := Topology{ds[i], cur.Cols}.Normalized()
		if next.Count() > maxProcs {
			break
		}
		chain = append(chain, next)
		cur = next
	}
	return chain
}

// SmallestConfig returns the smallest nearly-square topology with at least
// minProcs processors whose dimensions both divide n, or false if none
// exists below or at maxProcs.
func SmallestConfig(n, minProcs, maxProcs int) (Topology, bool) {
	ds := Divisors(n)
	best := Topology{}
	bestCount := maxProcs + 1
	for _, r := range ds {
		if r > maxProcs {
			break
		}
		for _, c := range ds {
			p := r * c
			if p < minProcs || p > maxProcs || p >= bestCount {
				continue
			}
			t := Topology{r, c}.Normalized()
			if p < bestCount || (p == bestCount && t.Aspect() < best.Aspect()) {
				best, bestCount = t, p
			}
		}
	}
	return best, best.IsValid()
}

// Chain1D enumerates 1-D processor counts that divide n, between minProcs
// and maxProcs, in increasing order. Used by row/column-distributed and
// unconstrained applications.
func Chain1D(n, minProcs, maxProcs int) []int {
	var out []int
	for _, d := range Divisors(n) {
		if d >= minProcs && d <= maxProcs {
			out = append(out, d)
		}
	}
	return out
}
