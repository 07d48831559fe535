package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/workload"
)

func TestTable2ChainsMatchPaper(t *testing.T) {
	rows := Table2()
	find := func(problem string) Table2Row {
		for _, r := range rows {
			if r.Problem == problem {
				return r
			}
		}
		t.Fatalf("row %q missing", problem)
		return Table2Row{}
	}
	cfgs := find("8000 (LU, MM)").Configs
	want := []string{"1x2", "2x2", "2x4", "4x4", "4x5", "5x5", "5x8"}
	if strings.Join(cfgs, " ") != strings.Join(want, " ") {
		t.Errorf("8000 chain %v, want %v", cfgs, want)
	}
	fft := find("8192 (FFT)").Configs
	if strings.Join(fft, " ") != "2 4 8 16 32" {
		t.Errorf("FFT chain %v", fft)
	}
}

func TestFig2aShape(t *testing.T) {
	data, err := Fig2a(perfmodel.SystemX())
	if err != nil {
		t.Fatal(err)
	}
	// Every series starts at its smallest config and the first expansion
	// always helps.
	for n, pts := range data {
		if len(pts) < 3 {
			t.Fatalf("size %d: only %d points", n, len(pts))
		}
		if pts[1].Seconds >= pts[0].Seconds {
			t.Errorf("size %d: first expansion should improve (%.1f -> %.1f)",
				n, pts[0].Seconds, pts[1].Seconds)
		}
	}
	// Larger sizes take longer at equal processor counts.
	find := func(n, procs int) float64 {
		for _, pt := range data[n] {
			if pt.Procs == procs {
				return pt.Seconds
			}
		}
		t.Fatalf("size %d has no %d-proc point", n, procs)
		return 0
	}
	if find(24000, 16) <= find(8000, 16) {
		t.Error("24000 should be slower than 8000 on 16 procs")
	}
}

func TestFig2bShape(t *testing.T) {
	data := Fig2b(perfmodel.SystemX())
	for n, pts := range data {
		for i := 1; i < len(pts); i++ {
			if pts[i].Seconds > pts[i-1].Seconds*1.01 {
				t.Errorf("size %d: redistribution cost rising along chain: %+v", n, pts)
				break
			}
		}
	}
	// Cost grows with matrix size at the same transition point.
	if data[24000][0].Seconds <= data[8000][0].Seconds {
		t.Error("redistribution cost should grow with matrix size")
	}
}

func TestFig3aReproducesTrajectory(t *testing.T) {
	iters, err := Fig3a(perfmodel.SystemX())
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 10 {
		t.Fatalf("%d iterations", len(iters))
	}
	want := []int{2, 4, 6, 9, 12, 16, 12, 12, 12, 12}
	for i, r := range iters {
		if r.Procs != want[i] {
			t.Fatalf("iteration %d on %d procs, want %d", i+1, r.Procs, want[i])
		}
	}
	// The 12 -> 16 expansion must show a negative delta (performance loss),
	// like the paper's -5.06 s row.
	if iters[5].IterTime <= iters[4].IterTime {
		t.Error("expansion to 16 should degrade iteration time")
	}
}

func TestFig3bOrdering(t *testing.T) {
	rows, err := Fig3b(perfmodel.SystemX())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.App == "Master-Worker" {
			// No data: checkpointing and ReSHAPE must tie.
			if r.RedistSec[1] != 0 || r.RedistSec[2] != 0 {
				t.Errorf("MW redist %v", r.RedistSec)
			}
			continue
		}
		// Checkpoint redistribution must dominate ReSHAPE redistribution.
		if r.RedistSec[1] <= r.RedistSec[2] {
			t.Errorf("%s: checkpoint redist %.1f <= reshape %.1f", r.App, r.RedistSec[1], r.RedistSec[2])
		}
		// Both dynamic strategies beat static on total iteration time.
		if r.IterSec[2] >= r.IterSec[0] {
			t.Errorf("%s: reshape iter time %.1f >= static %.1f", r.App, r.IterSec[2], r.IterSec[0])
		}
	}
	// Paper anchor: LU checkpoint/reshape redistribution ratio is 8.3; ours
	// must at least be well above 2.
	for _, r := range rows {
		if r.App == "LU" {
			if ratio := r.RedistSec[1] / r.RedistSec[2]; ratio < 2 {
				t.Errorf("LU checkpoint/reshape ratio %.1f", ratio)
			}
		}
	}
}

func TestW1UtilizationImprovement(t *testing.T) {
	cmp, err := RunW1(perfmodel.SystemX())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 39.7% static vs 70.7% dynamic. Require a large improvement.
	if cmp.DynamicUtilization <= cmp.StaticUtilization+0.1 {
		t.Errorf("utilization static %.3f dynamic %.3f: improvement too small",
			cmp.StaticUtilization, cmp.DynamicUtilization)
	}
	if cmp.StaticUtilization > 0.6 {
		t.Errorf("static utilization %.3f unexpectedly high", cmp.StaticUtilization)
	}
}

func TestW1TurnaroundWinners(t *testing.T) {
	cmp, err := RunW1(perfmodel.SystemX())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]workload.TurnaroundRow{}
	for _, r := range cmp.Rows {
		rows[r.Job] = r
	}
	// LU, MM and Jacobi benefit substantially from dynamic scheduling.
	for _, name := range []string{"LU", "MM", "Jacobi"} {
		r := rows[name]
		if r.Difference() <= 0 {
			t.Errorf("%s: dynamic (%.1f) should beat static (%.1f)", name, r.DynamicSec, r.StaticSec)
		}
	}
	// Master-worker finishes too quickly to benefit (paper: -0.53 s).
	mw := rows["Master-Worker"]
	if mw.Difference() > 0.2*mw.StaticSec {
		t.Errorf("Master-Worker gained %.1f s of %.1f: too much", mw.Difference(), mw.StaticSec)
	}
}

func TestW2SmallAdvantage(t *testing.T) {
	cmp, err := RunW2(perfmodel.SystemX())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's W2 shows only a small advantage for dynamic scheduling;
	// nothing may get dramatically worse either.
	for _, r := range cmp.Rows {
		if r.DynamicSec > r.StaticSec*1.3 {
			t.Errorf("%s: dynamic %.1f much worse than static %.1f", r.Job, r.DynamicSec, r.StaticSec)
		}
	}
}

func TestW2ShrinkToAccommodate(t *testing.T) {
	cmp, err := RunW2(perfmodel.SystemX())
	if err != nil {
		t.Fatal(err)
	}
	// LU must shrink at least once in the dynamic run (to admit queued
	// jobs), visible as a shrink event in the trace.
	shrunk := false
	for _, e := range cmp.Dynamic.Events {
		if e.Job == "LU" && e.Kind == "shrink" {
			shrunk = true
		}
	}
	if !shrunk {
		t.Error("LU never shrank in W2")
	}
	// Every job eventually runs and finishes.
	if len(cmp.Dynamic.Jobs) != 4 {
		t.Errorf("%d jobs finished", len(cmp.Dynamic.Jobs))
	}
}

var update = flag.Bool("update", false, "rewrite testdata/<artefact>.golden")

// TestArtefactsGolden holds every artefact's bytes to
// testdata/<name>.golden. A file changes only under -update, and a change
// to modes.golden is a change in scheduling.
func TestArtefactsGolden(t *testing.T) {
	for _, a := range Artefacts(perfmodel.SystemX()) {
		t.Run(a.Name, func(t *testing.T) {
			var b bytes.Buffer
			if err := a.Print(&b); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", a.Name+".golden")
			if *update {
				if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record it)", err)
			}
			if !bytes.Equal(b.Bytes(), want) {
				t.Errorf("%s differs from %s:\n%s", a.Name, path, b.String())
			}
		})
	}
}
