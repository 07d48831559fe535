package reshape_test

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/resize"
	"repro/internal/scheduler"
	"repro/pkg/reshape"
)

// legacyGolden holds what the hand-rolled worker loop every app carried
// before the SDK (iterate, log, resize point, retire or go on, Done)
// produced for legacyCases, one "== name" section per case. It was
// recorded from that loop and is not regenerated: Run is held to it.
const legacyGolden = "testdata/legacy-loop.golden"

// expandHoldShrink grows the job to bigger, holds, then shrinks it back.
func expandHoldShrink(start, bigger grid.Topology) []scheduler.Decision {
	return []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: bigger},
		{Action: scheduler.ActionNone},
		{Action: scheduler.ActionShrink, Target: start},
	}
}

// legacyCases drive five apps through scripted trajectories: four through
// expand, hold and shrink, and FFT through a shrink that retires two of
// its four ranks.
var legacyCases = map[string]struct {
	cfg    apps.Config
	start  grid.Topology
	script []scheduler.Decision
}{
	"lu": {apps.Config{App: "lu", N: 12, NB: 2, Iterations: 5}, grid.Topology{Rows: 1, Cols: 2},
		expandHoldShrink(grid.Topology{Rows: 1, Cols: 2}, grid.Topology{Rows: 2, Cols: 2})},
	"jacobi": {apps.Config{App: "jacobi", N: 12, NB: 2, Iterations: 6, Sweeps: 5}, grid.Row1D(2),
		expandHoldShrink(grid.Row1D(2), grid.Row1D(4))},
	"cg": {apps.Config{App: "cg", N: 12, NB: 2, Iterations: 5, Sweeps: 3}, grid.Topology{Rows: 1, Cols: 2},
		expandHoldShrink(grid.Topology{Rows: 1, Cols: 2}, grid.Topology{Rows: 2, Cols: 3})},
	"mw": {apps.Config{App: "mw", Iterations: 4, MWUnits: 30, MWChunk: 5, MWUnitWork: 10}, grid.Row1D(2),
		expandHoldShrink(grid.Row1D(2), grid.Row1D(4))},
	"fft-retire": {apps.Config{App: "fft", N: 8, NB: 2, Iterations: 4}, grid.Row1D(4), []scheduler.Decision{
		{Action: scheduler.ActionShrink, Target: grid.Row1D(2)},
		{Action: scheduler.ActionNone},
	}},
}

// writeOutcome renders one run: per record its iteration and topology
// (times are wall-clock and left out), what the scheduler saw, where the
// run ended, and the replicated buffers bit for bit.
func writeOutcome(b *strings.Builder, rep *reshape.Report, c *resize.ScriptedClient) {
	b.WriteString("records")
	for _, r := range rep.Records {
		fmt.Fprintf(b, " %d@%v", r.Iter, r.Topo)
	}
	fmt.Fprintf(b, "\ncontacts %d\ncompleted %d\nended %v\nfinal %v\niterations %d\n",
		c.Contacts, len(c.Completed), c.Ended, rep.FinalTopo, rep.Iterations)
	names := make([]string, 0, len(rep.Replicated))
	for n := range rep.Replicated {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString("replicated " + n)
		for _, v := range rep.Replicated[n] {
			b.WriteString(" " + strconv.FormatFloat(v, 'x', -1, 64))
		}
		b.WriteString("\n")
	}
}

// diffCase runs one case through Run and compares the outcome with its
// section of legacyGolden.
func diffCase(t *testing.T, name string) {
	golden, err := os.ReadFile(legacyGolden)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(golden), "== "+name+"\n")
	if !ok {
		t.Fatalf("%s has no %q section", legacyGolden, name)
	}
	want, _, _ := strings.Cut(rest, "== ")

	c := legacyCases[name]
	app, err := apps.Build(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	client := &resize.ScriptedClient{Script: c.script}
	rep, err := reshape.Run(context.Background(), app,
		reshape.WithScheduler(client),
		reshape.WithJobID(1),
		reshape.WithTopology(c.start),
		reshape.WithMaxIterations(c.cfg.Iterations))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	writeOutcome(&b, rep, client)
	if got := b.String(); got != want {
		t.Errorf("%s, section %s:\ngot\n%swant\n%s", legacyGolden, name, got, want)
	}
}

func TestDifferentialLU(t *testing.T)     { diffCase(t, "lu") }
func TestDifferentialJacobi(t *testing.T) { diffCase(t, "jacobi") }
func TestDifferentialCG(t *testing.T)     { diffCase(t, "cg") }
func TestDifferentialMW(t *testing.T)     { diffCase(t, "mw") }

// TestDifferentialRetire pins the shrink-retire trajectory: ranks shrunk
// away leave without Done, and one completion signal reaches the
// scheduler.
func TestDifferentialRetire(t *testing.T) { diffCase(t, "fft-retire") }
