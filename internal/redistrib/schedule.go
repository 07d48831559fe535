package redistrib

import "repro/internal/grid"

// Pair is one source->destination transfer within a communication step.
// Src indexes the old processor set and Dst the new one.
type Pair struct {
	Src, Dst int
}

// Schedule1D computes the contention-free communication schedule for
// redistributing a block-cyclic array from p to q processors (same block
// size). Blocks with global block index j move from processor j mod p to
// processor j mod q, so the communicating pairs are exactly
// {(s,d) : s ≡ d (mod gcd(p,q))}. Within each residue class the pattern is
// the complete bipartite graph K(p/g, q/g); colouring it with shifted
// diagonals yields max(p,q)/g steps in which each source sends at most one
// message and each destination receives at most one — the generalized
// circulant schedule.
func Schedule1D(p, q int) [][]Pair {
	if p <= 0 || q <= 0 {
		return nil
	}
	g := grid.GCD(p, q)
	m, n := p/g, q/g
	steps := m
	if n > m {
		steps = n
	}
	sched := make([][]Pair, steps)
	for c := 0; c < steps; c++ {
		var step []Pair
		for r := 0; r < g; r++ {
			if m <= n {
				for a := 0; a < m; a++ {
					b := (a + c) % n
					step = append(step, Pair{Src: r + a*g, Dst: r + b*g})
				}
			} else {
				for b := 0; b < n; b++ {
					a := (b + c) % m
					step = append(step, Pair{Src: r + a*g, Dst: r + b*g})
				}
			}
		}
		sched[c] = step
	}
	return sched
}

// peerTables converts a p -> q schedule into per-step coordinate lookups:
// sendTo[t][s] is the destination of source s in step t and recvFrom[t][d]
// the source of destination d, -1 where the processor is idle.
func peerTables(sched [][]Pair, p, q int) (sendTo, recvFrom [][]int) {
	sendTo = make([][]int, len(sched))
	recvFrom = make([][]int, len(sched))
	for t, step := range sched {
		sendTo[t] = make([]int, p)
		recvFrom[t] = make([]int, q)
		for i := range sendTo[t] {
			sendTo[t][i] = -1
		}
		for i := range recvFrom[t] {
			recvFrom[t][i] = -1
		}
		for _, pr := range step {
			sendTo[t][pr.Src] = pr.Dst
			recvFrom[t][pr.Dst] = pr.Src
		}
	}
	return sendTo, recvFrom
}
