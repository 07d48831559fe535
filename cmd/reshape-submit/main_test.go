package main

import (
	"slices"
	"testing"

	"repro/internal/grid"
)

// TestJobChain: each application gets the chain its flags describe and
// starts on its first configuration, and a 1-D job larger than -max is
// refused instead of submitted without one.
func TestJobChain(t *testing.T) {
	row := func(ps ...int) []grid.Topology {
		var out []grid.Topology
		for _, p := range ps {
			out = append(out, grid.Row1D(p))
		}
		return out
	}
	g12, g48 := grid.Topology{Rows: 1, Cols: 2}, grid.Topology{Rows: 4, Cols: 8}
	for _, tc := range []struct {
		name      string
		app       string
		n, max    int
		initial   grid.Topology
		wantStart grid.Topology
		wantChain []grid.Topology // nil: refused
	}{
		{"2-D grows along its grid", "lu", 64, 16, g12, g12, grid.GrowthChain(g12, 64, 16)},
		{"2-D larger than max keeps its grid", "mm", 64, 16, g48, g48, []grid.Topology{g48}},
		{"1-D divisors", "jacobi", 32, 16, g12, grid.Row1D(2), row(2, 4, 8, 16)},
		{"1-D starts on the first divisor", "fft", 32, 16, grid.Topology{Rows: 1, Cols: 3}, grid.Row1D(4), row(4, 8, 16)},
		{"1-D without divisors steps by two", "cg", 7, 6, g12, grid.Row1D(2), row(2, 4, 6)},
		{"mw steps by two", "mw", 32, 8, grid.Row1D(2), grid.Row1D(2), row(2, 4, 6, 8)},
		{"1-D larger than max", "jacobi", 32, 16, grid.Topology{Rows: 1, Cols: 32}, grid.Topology{}, nil},
		{"mw larger than max", "mw", 32, 16, grid.Topology{Rows: 1, Cols: 17}, grid.Topology{}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start, chain, err := jobChain(tc.app, tc.n, tc.initial, tc.max)
			if tc.wantChain == nil {
				if err == nil {
					t.Fatalf("accepted, starting on %v with chain %v", start, chain)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if start != tc.wantStart || !slices.Equal(chain, tc.wantChain) {
				t.Errorf("starts on %v with chain %v, want %v with %v", start, chain, tc.wantStart, tc.wantChain)
			}
		})
	}
}
