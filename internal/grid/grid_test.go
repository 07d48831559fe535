package grid

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestTopologyStringMatchesFmt pins String's bytes to the "%dx%d" form it
// replaced: decision reasons, golden traces and the profiler's persisted
// redistribution keys all carry them.
func TestTopologyStringMatchesFmt(t *testing.T) {
	dims := []int{-12, 0, 1, 2, 9, 10, 11, 64, 99, 100, 101, 512, 999, 1000, 1001, 9999}
	for _, r := range dims {
		for _, c := range dims {
			if got, want := (Topology{r, c}).String(), fmt.Sprintf("%dx%d", r, c); got != want {
				t.Fatalf("Topology{%d, %d}.String() = %q, want %q", r, c, got, want)
			}
		}
	}
	if got := string((Topology{3, 4}).Append([]byte("1x2->"))); got != "1x2->3x4" {
		t.Fatalf("Append onto a prefix gave %q", got)
	}
}

func TestNearlySquare(t *testing.T) {
	cases := []struct {
		p    int
		want Topology
	}{
		{1, Topology{1, 1}},
		{2, Topology{1, 2}},
		{4, Topology{2, 2}},
		{6, Topology{2, 3}},
		{9, Topology{3, 3}},
		{12, Topology{3, 4}},
		{20, Topology{4, 5}},
		{36, Topology{6, 6}},
		{40, Topology{5, 8}},
		{48, Topology{6, 8}},
		{7, Topology{1, 7}},
	}
	for _, c := range cases {
		if got := NearlySquare(c.p); got != c.want {
			t.Errorf("NearlySquare(%d) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNearlySquareInvalid(t *testing.T) {
	if got := NearlySquare(0); got.IsValid() {
		t.Errorf("NearlySquare(0) = %v, want invalid", got)
	}
}

func TestNearlySquareProperty(t *testing.T) {
	f := func(raw uint16) bool {
		p := int(raw%5000) + 1
		topo := NearlySquare(p)
		return topo.Count() == p && topo.Rows <= topo.Cols
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivisors(t *testing.T) {
	got := Divisors(12)
	want := []int{1, 2, 3, 4, 6, 12}
	if len(got) != len(want) {
		t.Fatalf("Divisors(12) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Divisors(12) = %v, want %v", got, want)
		}
	}
	if Divisors(0) != nil {
		t.Error("Divisors(0) should be nil")
	}
}

func TestDivisorsProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%2000) + 1
		ds := Divisors(n)
		// sorted, all divide, includes 1 and n
		if ds[0] != 1 || ds[len(ds)-1] != n {
			return false
		}
		for i, d := range ds {
			if n%d != 0 {
				return false
			}
			if i > 0 && ds[i-1] >= d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAspect(t *testing.T) {
	if a := (Topology{2, 4}).Aspect(); a != 2 {
		t.Errorf("Aspect(2x4) = %v", a)
	}
	if a := (Topology{4, 2}).Aspect(); a != 2 {
		t.Errorf("Aspect(4x2) = %v", a)
	}
	if a := (Topology{3, 3}).Aspect(); a != 1 {
		t.Errorf("Aspect(3x3) = %v", a)
	}
}

// chainEq compares a chain against expected "RxC" strings.
func chainEq(t *testing.T, got []Topology, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("chain %v, want %v", got, want)
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Fatalf("chain[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// The paper's Table 2 configuration chains for LU/MM problem sizes.
func TestGrowthChainMatchesTable2For8000(t *testing.T) {
	chain := GrowthChain(Topology{1, 2}, 8000, 50)
	chainEq(t, chain, []string{"1x2", "2x2", "2x4", "4x4", "4x5", "5x5", "5x8"})
}

func TestGrowthChainMatchesTable2For12000(t *testing.T) {
	chain := GrowthChain(Topology{1, 2}, 12000, 50)
	chainEq(t, chain, []string{"1x2", "2x2", "2x3", "3x3", "3x4", "4x4", "4x5", "5x5", "5x6", "6x6", "6x8"})
}

func TestGrowthChainMatchesTable2For14000(t *testing.T) {
	chain := GrowthChain(Topology{2, 2}, 14000, 50)
	chainEq(t, chain, []string{"2x2", "2x4", "4x4", "4x5", "5x5", "5x7", "7x7"})
}

func TestGrowthChainMatchesTable2For16000And20000(t *testing.T) {
	for _, n := range []int{16000, 20000} {
		chain := GrowthChain(Topology{2, 2}, n, 50)
		chainEq(t, chain, []string{"2x2", "2x4", "4x4", "4x5", "5x5", "5x8"})
	}
}

func TestGrowthChainFor24000(t *testing.T) {
	chain := GrowthChain(Topology{2, 4}, 24000, 50)
	chainEq(t, chain, []string{"2x4", "3x4", "4x4", "4x5", "5x5", "5x6", "6x6", "6x8"})
}

func TestGrowthChainFor21000(t *testing.T) {
	// Table 2 lists 2x2, 2x3, 3x3, 3x4, 4x5, 5x5, ... (4x4 missing, likely a
	// paper typo); the smallest-dimension rule inserts 4x4 between 3x4 and
	// 4x5, matching every other chain's structure.
	chain := GrowthChain(Topology{2, 2}, 21000, 50)
	chainEq(t, chain, []string{"2x2", "2x3", "3x3", "3x4", "4x4", "4x5", "5x5", "5x6", "6x6", "6x7", "7x7"})
}

func TestGrowMonotone(t *testing.T) {
	f := func(rawN, rawR uint16) bool {
		n := int(rawN%5000) + 2
		ds := Divisors(n)
		r := ds[int(rawR)%len(ds)]
		start := Topology{r, r}
		next, ok := Grow(start, n)
		if !ok {
			return true
		}
		// growth increases the count, keeps normalized form, and both
		// dimensions still divide n
		return next.Count() > start.Count() &&
			next.Rows <= next.Cols &&
			n%next.Rows == 0 && n%next.Cols == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChain1D(t *testing.T) {
	got := Chain1D(8192, 2, 32)
	want := []int{2, 4, 8, 16, 32}
	if len(got) != len(want) {
		t.Fatalf("Chain1D(8192) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Chain1D(8192) = %v, want %v", got, want)
		}
	}
}

func TestSmallestConfig(t *testing.T) {
	topo, ok := SmallestConfig(12000, 2, 50)
	if !ok || topo.String() != "1x2" {
		t.Errorf("SmallestConfig(12000, 2) = %v/%v", topo, ok)
	}
	topo, ok = SmallestConfig(24000, 8, 50)
	if !ok || topo.Count() != 8 {
		t.Errorf("SmallestConfig(24000, 8) = %v/%v", topo, ok)
	}
	if _, ok := SmallestConfig(5, 26, 50); ok {
		t.Error("SmallestConfig(5, 26, 50) should not exist (combos are 1, 5, 25)")
	}
}

func TestConfigurationsDivisibility(t *testing.T) {
	for _, cfg := range Configurations(12000, 2, 50, 2.0) {
		if 12000%cfg.Rows != 0 || 12000%cfg.Cols != 0 {
			t.Errorf("config %v does not divide 12000", cfg)
		}
		if cfg.Aspect() > 2.0 {
			t.Errorf("config %v exceeds aspect limit", cfg)
		}
	}
}

func TestConfigurationsSortedUniqueCounts(t *testing.T) {
	cfgs := Configurations(8000, 2, 50, 2.0)
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].Count() <= cfgs[i-1].Count() {
			t.Errorf("configs not strictly increasing: %v", cfgs)
		}
	}
}

func TestRow1D(t *testing.T) {
	r := Row1D(8)
	if r.Rows != 8 || r.Cols != 1 || r.Count() != 8 {
		t.Errorf("Row1D(8) = %v", r)
	}
}

func TestNormalized(t *testing.T) {
	if got := (Topology{8, 2}).Normalized(); got != (Topology{2, 8}) {
		t.Errorf("Normalized(8x2) = %v", got)
	}
}
