package redistrib

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

// Oracles: the schedule and block-class properties the executor relies on,
// computed the slow, obvious way.

// classBlocks returns the global block indices j (j mod p == s, j mod q == d)
// below nblocks.
func classBlocks(nblocks, p, s, q, d int) []int {
	var out []int
	for j := s; j < nblocks; j += p {
		if j%q == d {
			out = append(out, j)
		}
	}
	return out
}

// maxContention returns, over all steps, the most messages one source sends
// and one destination receives within a step; a contention-free schedule
// scores 1 and 1.
func maxContention(sched [][]Pair) (send, recv int) {
	for _, step := range sched {
		perSrc, perDst := map[int]int{}, map[int]int{}
		for _, pr := range step {
			perSrc[pr.Src]++
			perDst[pr.Dst]++
			send = max(send, perSrc[pr.Src])
			recv = max(recv, perDst[pr.Dst])
		}
	}
	return send, recv
}

// validateSchedule checks that a schedule covers each communicating pair
// exactly once.
func validateSchedule(sched [][]Pair, p, q int) error {
	g := grid.GCD(p, q)
	seen := make(map[Pair]bool)
	for _, step := range sched {
		for _, pr := range step {
			if pr.Src < 0 || pr.Src >= p || pr.Dst < 0 || pr.Dst >= q {
				return fmt.Errorf("pair %v out of range (p=%d q=%d)", pr, p, q)
			}
			if pr.Src%g != pr.Dst%g {
				return fmt.Errorf("pair %v violates residue condition mod %d", pr, g)
			}
			if seen[pr] {
				return fmt.Errorf("pair %v scheduled twice", pr)
			}
			seen[pr] = true
		}
	}
	if want := p * q / g; len(seen) != want {
		return fmt.Errorf("schedule covers %d pairs, want %d", len(seen), want)
	}
	return nil
}

func TestSchedule1DKnownCases(t *testing.T) {
	cases := []struct {
		p, q, steps int
	}{
		{2, 4, 2},   // g=2, max(1,2)=2
		{4, 2, 2},   // shrink direction
		{4, 16, 4},  // g=4
		{6, 9, 6},   // g=3, max(2,3)=... 6/3=2, 9/3=3 -> 3 steps
		{1, 5, 5},   // g=1
		{5, 5, 1},   // identity
		{12, 20, 5}, // g=4, max(3,5)=5
	}
	for _, c := range cases {
		sched := Schedule1D(c.p, c.q)
		want := c.steps
		if c.p == 6 && c.q == 9 {
			want = 3
		}
		if len(sched) != want {
			t.Errorf("Schedule1D(%d,%d) has %d steps, want %d", c.p, c.q, len(sched), want)
		}
		if err := validateSchedule(sched, c.p, c.q); err != nil {
			t.Errorf("Schedule1D(%d,%d): %v", c.p, c.q, err)
		}
	}
}

func TestSchedule1DContentionFree(t *testing.T) {
	for p := 1; p <= 12; p++ {
		for q := 1; q <= 12; q++ {
			if send, recv := maxContention(Schedule1D(p, q)); send != 1 || recv != 1 {
				t.Errorf("Schedule1D(%d,%d) send contention %d, receive contention %d", p, q, send, recv)
			}
		}
	}
}

func TestSchedule1DCoversAllPairsProperty(t *testing.T) {
	f := func(rawP, rawQ uint8) bool {
		p := int(rawP%32) + 1
		q := int(rawQ%32) + 1
		return validateSchedule(Schedule1D(p, q), p, q) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchedule1DIdentityIsLocal(t *testing.T) {
	sched := Schedule1D(7, 7)
	if len(sched) != 1 {
		t.Fatalf("identity schedule has %d steps", len(sched))
	}
	for _, pr := range sched[0] {
		if pr.Src != pr.Dst {
			t.Errorf("identity schedule contains non-local pair %v", pr)
		}
	}
}

func TestSchedule1DInvalidInputs(t *testing.T) {
	if Schedule1D(0, 4) != nil || Schedule1D(4, -1) != nil {
		t.Error("invalid processor counts should yield nil schedule")
	}
}

func TestCollapsedScheduleHasContention(t *testing.T) {
	// The same transfers in one step, with no contention avoidance: the
	// oracle must see a destination receive from p/gcd(p,q) sources at once.
	sched := [][]Pair{slices.Concat(Schedule1D(8, 2)...)}
	if _, recv := maxContention(sched); recv != 4 {
		t.Errorf("collapsed 8->2 receive contention = %d, want 4", recv)
	}
	if err := validateSchedule(sched, 8, 2); err != nil {
		t.Errorf("collapsed schedule must still cover all pairs: %v", err)
	}
}

func TestScheduleStepCountIsOptimal(t *testing.T) {
	// The circulant schedule needs exactly max(p,q)/gcd(p,q) steps, which is
	// the degree of the bipartite communication graph and thus optimal.
	f := func(rawP, rawQ uint8) bool {
		p := int(rawP%24) + 1
		q := int(rawQ%24) + 1
		g := grid.GCD(p, q)
		want := p / g
		if q/g > want {
			want = q / g
		}
		return len(Schedule1D(p, q)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassBlocksPartitionBlocks(t *testing.T) {
	// Every block index must appear in exactly one (src,dst) class.
	nblocks, p, q := 37, 4, 6
	seen := make([]int, nblocks)
	table := classTable(nblocks, p, q)
	for s := 0; s < p; s++ {
		for d := 0; d < q; d++ {
			if !slices.Equal(table[s*q+d], classBlocks(nblocks, p, s, q, d)) {
				t.Fatalf("classTable[%d,%d] = %v, classBlocks %v", s, d, table[s*q+d], classBlocks(nblocks, p, s, q, d))
			}
			for _, j := range classBlocks(nblocks, p, s, q, d) {
				seen[j]++
				if j%p != s || j%q != d {
					t.Fatalf("block %d in wrong class (%d,%d)", j, s, d)
				}
			}
		}
	}
	for j, n := range seen {
		if n != 1 {
			t.Fatalf("block %d appears %d times", j, n)
		}
	}
}
