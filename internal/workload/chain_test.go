package workload

import (
	"slices"
	"testing"

	"repro/internal/grid"
)

// growLoop is the reference GrowthChain is held to: one grid.Grow per step,
// each of which recomputes the divisors of n.
func growLoop(start grid.Topology, n, maxProcs int) []grid.Topology {
	cur := start.Normalized()
	chain := []grid.Topology{cur}
	for {
		next, ok := grid.Grow(cur, n)
		if !ok || next.Count() > maxProcs {
			return chain
		}
		chain = append(chain, next)
		cur = next
	}
}

// TestGrowthChainMatchesGrowLoop: for every problem size the generator
// draws, every start SmallestConfig can return and every cluster size up to
// 1024 processors, the chain built from one divisor list is the one the
// step-by-step Grow loop builds. The Grow steps do not depend on the cluster
// size, which only decides where the loop stops, so the loop runs once per
// start and each smaller cluster's chain is the prefix it would have stopped
// at.
func TestGrowthChainMatchesGrowLoop(t *testing.T) {
	const top = 1024
	for _, n := range luSizePool {
		var starts []grid.Topology
		for minProcs := 1; minProcs <= top; minProcs++ {
			if s, ok := grid.SmallestConfig(n, minProcs, top); ok && !slices.Contains(starts, s) {
				starts = append(starts, s)
			}
		}
		if len(starts) < 2 {
			t.Fatalf("n=%d: only %d starts", n, len(starts))
		}
		for _, s := range starts {
			full := growLoop(s, n, top)
			for maxProcs := 1; maxProcs <= top; maxProcs++ {
				k := 1
				for k < len(full) && full[k].Count() <= maxProcs {
					k++
				}
				if got, want := grid.GrowthChain(s, n, maxProcs), full[:k]; !slices.Equal(got, want) {
					t.Fatalf("GrowthChain(%v, %d, %d) = %v, the Grow loop gives %v", s, n, maxProcs, got, want)
				}
			}
		}
	}
}
