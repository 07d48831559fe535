package perfmodel

import (
	"math"
	"testing"

	"repro/internal/grid"
)

func topo(r, c int) grid.Topology { return grid.Topology{Rows: r, Cols: c} }

func iterTime(t *testing.T, m AppModel, tp grid.Topology) float64 {
	t.Helper()
	v, err := SystemX().IterTime(m, tp)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLUCalibrationAnchors(t *testing.T) {
	// Figure 3(a): n=12000 on 1x2 takes 129.63 s; the model must land
	// within 15%.
	m := AppModel{App: "lu", N: 12000}
	got := iterTime(t, m, topo(1, 2))
	if got < 110 || got > 150 {
		t.Errorf("LU 12000 on 2 procs = %.1f s, want ~129.63", got)
	}
}

func TestLUSweetSpotAt12For12000(t *testing.T) {
	// The model must reproduce the Figure 3(a) shape: improving through 12
	// processors, degrading at 16.
	m := AppModel{App: "lu", N: 12000}
	t2 := iterTime(t, m, topo(1, 2))
	t4 := iterTime(t, m, topo(2, 2))
	t6 := iterTime(t, m, topo(2, 3))
	t9 := iterTime(t, m, topo(3, 3))
	t12 := iterTime(t, m, topo(3, 4))
	t16 := iterTime(t, m, topo(4, 4))
	seq := []float64{t2, t4, t6, t9, t12}
	for i := 1; i < len(seq); i++ {
		if seq[i] >= seq[i-1] {
			t.Errorf("LU 12000 not improving at step %d: %v", i, seq)
		}
	}
	if t16 <= t12 {
		t.Errorf("LU 12000: 16 procs (%.1f) should be slower than 12 (%.1f)", t16, t12)
	}
}

func TestLUSweetSpotNear30For21000(t *testing.T) {
	// §4.1.1: problem size 21000 has its sweet spot at 30 processors.
	m := AppModel{App: "lu", N: 21000}
	t25 := iterTime(t, m, topo(5, 5))
	t30 := iterTime(t, m, topo(5, 6))
	t36 := iterTime(t, m, topo(6, 6))
	if t30 >= t25 {
		t.Errorf("LU 21000: 30 procs (%.1f) should beat 25 (%.1f)", t30, t25)
	}
	if t36 <= t30 {
		t.Errorf("LU 21000: 36 procs (%.1f) should be slower than 30 (%.1f)", t36, t30)
	}
}

func TestLULargerProblemsBenefitMore(t *testing.T) {
	// Figure 2(a): relative improvement from 16 to 20 procs grows with n.
	small := AppModel{App: "lu", N: 8000}
	large := AppModel{App: "lu", N: 24000}
	relSmall := iterTime(t, small, topo(4, 4)) / iterTime(t, small, topo(4, 5))
	relLarge := iterTime(t, large, topo(4, 4)) / iterTime(t, large, topo(4, 5))
	if relLarge <= relSmall {
		t.Errorf("larger problem should benefit more: small ratio %.3f, large %.3f", relSmall, relLarge)
	}
	if relLarge < 1.05 {
		t.Errorf("24000 should improve noticeably 16->20, got ratio %.3f", relLarge)
	}
}

func TestAspectPenaltyPrefersSquare(t *testing.T) {
	m := AppModel{App: "lu", N: 12000}
	sq := iterTime(t, m, topo(4, 4))
	rect := iterTime(t, m, topo(2, 8))
	if rect <= sq {
		t.Errorf("2x8 (%.1f) should be slower than 4x4 (%.1f)", rect, sq)
	}
}

func TestRedistDecreasesWithProcs(t *testing.T) {
	// Figure 2(b): for a fixed matrix size the redistribution cost falls as
	// the processor count grows.
	p := SystemX()
	m := AppModel{App: "lu", N: 12000}
	early := p.RedistTime(m, topo(1, 2), topo(2, 2))
	late := p.RedistTime(m, topo(3, 4), topo(4, 4))
	if late >= early {
		t.Errorf("redist 12->16 (%.2f) should cost less than 2->4 (%.2f)", late, early)
	}
	// And the first expansion of n=12000 is ~8 s in the paper.
	if early < 4 || early > 14 {
		t.Errorf("redist 2->4 at n=12000 = %.2f s, want ~8", early)
	}
}

func TestRedistIncreasesWithMatrixSize(t *testing.T) {
	p := SystemX()
	small := p.RedistTime(AppModel{App: "lu", N: 8000}, topo(2, 2), topo(2, 4))
	large := p.RedistTime(AppModel{App: "lu", N: 24000}, topo(2, 2), topo(2, 4))
	if large <= small {
		t.Errorf("redist cost must grow with n: %v vs %v", small, large)
	}
}

func TestRedistZeroForSameTopoOrNoData(t *testing.T) {
	p := SystemX()
	if v := p.RedistTime(AppModel{App: "lu", N: 8000}, topo(2, 2), topo(2, 2)); v != 0 {
		t.Errorf("same-topology redist = %v", v)
	}
	if v := p.RedistTime(AppModel{App: "mw", MWWorkSeconds: 10}, topo(2, 1), topo(4, 1)); v != 0 {
		t.Errorf("master-worker redist = %v", v)
	}
}

func TestCheckpointMuchSlowerThanRedist(t *testing.T) {
	// Figure 3(b): checkpointing is 4.5-14.5x more expensive across apps.
	p := SystemX()
	for _, m := range []AppModel{
		{App: "lu", N: 12000},
		{App: "mm", N: 14000},
		{App: "jacobi", N: 8000},
		{App: "fft", N: 8192},
	} {
		r := p.RedistTime(m, topo(2, 2), topo(2, 3))
		c := p.CheckpointTime(m, topo(2, 2), topo(2, 3))
		ratio := c / r
		if ratio < 3 || ratio > 40 {
			t.Errorf("%s: checkpoint/redist ratio %.1f out of plausible range", m.App, ratio)
		}
	}
}

func TestCheckpointZeroForMW(t *testing.T) {
	p := SystemX()
	if v := p.CheckpointTime(AppModel{App: "mw"}, topo(2, 1), topo(4, 1)); v != 0 {
		t.Errorf("MW checkpoint = %v", v)
	}
}

func TestMasterWorkerScalesWithWorkers(t *testing.T) {
	m := AppModel{App: "mw", MWWorkSeconds: 14.7}
	t2 := iterTime(t, m, grid.Row1D(2))
	t4 := iterTime(t, m, grid.Row1D(4))
	if t2 != 14.7 {
		t.Errorf("MW with 1 worker = %v, want 14.7", t2)
	}
	if math.Abs(t4-4.9) > 1e-9 {
		t.Errorf("MW with 3 workers = %v, want 4.9", t4)
	}
	t1 := iterTime(t, m, grid.Row1D(1))
	if t1 != 14.7 {
		t.Errorf("MW solo = %v", t1)
	}
}

func TestJacobiAnchor(t *testing.T) {
	// Table 4: Jacobi(8000) static on 4 procs ran 3266 s for 10 iterations.
	m := AppModel{App: "jacobi", N: 8000}
	got := iterTime(t, m, grid.Row1D(4))
	if got < 250 || got > 420 {
		t.Errorf("Jacobi 8000 on 4 procs = %.1f s/iter, want ~326", got)
	}
	t8 := iterTime(t, m, grid.Row1D(8))
	if t8 >= got {
		t.Error("Jacobi must speed up with more processors")
	}
}

func TestFFTAnchor(t *testing.T) {
	// Table 4: FFT(8192) static on 4 procs ran 840 s for 10 iterations.
	m := AppModel{App: "fft", N: 8192}
	got := iterTime(t, m, grid.Row1D(4))
	if got < 55 || got > 120 {
		t.Errorf("FFT 8192 on 4 procs = %.1f s/iter, want ~84", got)
	}
}

func TestMMAnchor(t *testing.T) {
	// Table 4: MM(14000) static on 8 procs ran 3661 s for 10 iterations.
	m := AppModel{App: "mm", N: 14000}
	got := iterTime(t, m, topo(2, 4))
	if got < 280 || got > 460 {
		t.Errorf("MM 14000 on 8 procs = %.1f s/iter, want ~366", got)
	}
}

func TestDataBytes(t *testing.T) {
	cases := []struct {
		m    AppModel
		want int64
	}{
		{AppModel{App: "lu", N: 1000}, 8e6},
		{AppModel{App: "mm", N: 1000}, 24e6},
		{AppModel{App: "jacobi", N: 1000}, 8e6 + 8e3},
		{AppModel{App: "fft", N: 1024}, 1024 * 1024 * 16},
		{AppModel{App: "mw"}, 0},
	}
	for _, c := range cases {
		if got := c.m.DataBytes(); got != c.want {
			t.Errorf("%s: DataBytes = %d, want %d", c.m.App, got, c.want)
		}
	}
}

func TestIterTimeUnknownApp(t *testing.T) {
	if _, err := SystemX().IterTime(AppModel{App: "bogus"}, topo(1, 1)); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestCheckpointRespondsToTopology(t *testing.T) {
	// The checkpoint baseline funnels through one node: gathering from and
	// scattering to more ranks pays more message latency, so the Figure 3(b)
	// curve must rise (not stay flat) with processor count.
	p := SystemX()
	m := AppModel{App: "lu", N: 12000}
	small := p.CheckpointTime(m, topo(2, 2), topo(2, 3))
	large := p.CheckpointTime(m, topo(4, 4), topo(4, 6))
	if large <= small {
		t.Errorf("checkpoint 16->24 (%.6f) should cost more than 4->6 (%.6f)", large, small)
	}
	wantDelta := p.Latency * float64((16+24)-(4+6))
	if got := large - small; math.Abs(got-wantDelta) > 1e-12 {
		t.Errorf("latency delta = %.9f, want %.9f", got, wantDelta)
	}
}

func TestCalibrateRedistRecoversBandwidth(t *testing.T) {
	// Observations synthesized from the model with a different bandwidth
	// must pull the params to that bandwidth exactly.
	p := SystemX()
	const trueBW = 2.5e8
	var obs []RedistObservation
	for _, c := range []struct {
		bytes  float64
		copied float64
		minP   int
		steps  int
	}{
		// RedistTime predicts from the full data volume, so seconds are
		// synthesized from bytes+copied — overlapping grids (large copied
		// share) must calibrate to the same bandwidth as disjoint ones.
		{8e8, 0, 4, 4}, {4e8, 4e8, 12, 6}, {2.4e9, 1.2e9, 16, 8},
	} {
		total := c.bytes + c.copied
		secs := total/(trueBW*math.Pow(float64(c.minP), p.RedistCommExp)) + float64(c.steps)*p.Latency
		obs = append(obs, RedistObservation{
			Bytes: c.bytes, CopiedBytes: c.copied, MinProcs: c.minP, Steps: c.steps, Seconds: secs,
		})
	}
	netBW := p.Bandwidth
	used := p.CalibrateRedist(obs)
	if used != 3 {
		t.Fatalf("used %d observations, want 3", used)
	}
	if math.Abs(p.RedistBandwidth-trueBW)/trueBW > 1e-9 {
		t.Errorf("calibrated redist bandwidth %.4g, want %.4g", p.RedistBandwidth, trueBW)
	}
	// Calibration must not leak into the network bandwidth that drives the
	// iteration and checkpoint models.
	if p.Bandwidth != netBW {
		t.Errorf("network bandwidth changed from %.4g to %.4g", netBW, p.Bandwidth)
	}
	// The refit model reproduces a measured redistribution: an LU array of
	// matching volume between grids with the observed minP and steps.
	m := AppModel{App: "lu", N: 10000} // 8e8 bytes
	got := p.RedistTime(m, topo(2, 2), topo(3, 4))
	want := 8e8/(trueBW*math.Pow(4, p.RedistCommExp)) + float64(grid.CirculantSteps(topo(2, 2), topo(3, 4)))*p.Latency
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("RedistTime after calibration = %.6f, want %.6f", got, want)
	}
}

func TestCalibrateRedistSkipsDegenerate(t *testing.T) {
	p := SystemX()
	orig := p.Bandwidth
	used := p.CalibrateRedist([]RedistObservation{
		{Bytes: 0, MinProcs: 4, Steps: 2, Seconds: 1},       // no network traffic
		{Bytes: 1e6, MinProcs: 4, Steps: 10, Seconds: 1e-4}, // under pure latency
		{Bytes: 1e6, MinProcs: 0, Steps: 1, Seconds: 1},     // bad topology
	})
	if used != 0 {
		t.Errorf("used %d degenerate observations", used)
	}
	if p.Bandwidth != orig || p.RedistBandwidth != 0 {
		t.Errorf("bandwidths changed to %v/%v on empty calibration", p.Bandwidth, p.RedistBandwidth)
	}
}
