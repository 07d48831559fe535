package simcluster

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
)

func topo(r, c int) grid.Topology { return grid.Topology{Rows: r, Cols: c} }

func luJob(name string, n int, initial grid.Topology, arrival float64, iters int) JobInput {
	return JobInput{
		Spec: scheduler.JobSpec{
			Name:        name,
			App:         "lu",
			ProblemSize: n,
			Iterations:  iters,
			InitialTopo: initial,
			Chain:       grid.GrowthChain(initial, n, 50),
		},
		Model:   perfmodel.AppModel{App: "lu", N: n},
		Arrival: arrival,
	}
}

func TestStaticSingleJobDuration(t *testing.T) {
	p := perfmodel.SystemX()
	jobs := []JobInput{luJob("LU", 12000, topo(1, 2), 0, 10)}
	res, err := New(50, Static, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	iter, err := p.IterTime(perfmodel.AppModel{App: "lu", N: 12000}, topo(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := 10 * iter
	got := res.Jobs[0].Turnaround()
	if got < want*0.999 || got > want*1.001 {
		t.Errorf("static turnaround %.2f, want %.2f", got, want)
	}
	if len(res.Jobs[0].Iters) != 10 {
		t.Errorf("%d iteration records", len(res.Jobs[0].Iters))
	}
	for _, r := range res.Jobs[0].Iters {
		if r.Procs != 2 || r.RedistSec != 0 {
			t.Errorf("static iteration %+v", r)
		}
	}
}

func TestDynamicSoloJobClimbsToSweetSpot(t *testing.T) {
	// A lone LU(12000) on an idle cluster must reproduce Figure 3(a):
	// grow 2 -> 4 -> 6 -> 9 -> 12 -> 16, find 16 worse, shrink back to 12
	// and hold there.
	p := perfmodel.SystemX()
	jobs := []JobInput{luJob("LU", 12000, topo(1, 2), 0, 10)}
	res, err := New(50, Dynamic, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	iters := res.Jobs[0].Iters
	wantProcs := []int{2, 4, 6, 9, 12, 16, 12, 12, 12, 12}
	if len(iters) != len(wantProcs) {
		t.Fatalf("%d iterations, want %d: %+v", len(iters), len(wantProcs), iters)
	}
	for i, r := range iters {
		if r.Procs != wantProcs[i] {
			t.Errorf("iteration %d on %d procs, want %d (full: %+v)", i+1, r.Procs, wantProcs[i], iters)
			break
		}
	}
	// Redistribution paid on every transition (6 resizes: 5 up, 1 down).
	resizes := 0
	for _, r := range iters {
		if r.RedistSec > 0 {
			resizes++
		}
	}
	if resizes != 6 {
		t.Errorf("%d redistributions, want 6", resizes)
	}
	if res.Jobs[0].TotalRedist <= 0 {
		t.Error("no redistribution cost recorded")
	}
}

func TestDynamicBeatsStaticForSoloJob(t *testing.T) {
	p := perfmodel.SystemX()
	jobs := []JobInput{luJob("LU", 24000, topo(2, 4), 0, 10)}
	st, err := New(50, Static, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	dy, err := New(50, Dynamic, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	if dy.Jobs[0].Turnaround() >= st.Jobs[0].Turnaround() {
		t.Errorf("dynamic %.1f should beat static %.1f",
			dy.Jobs[0].Turnaround(), st.Jobs[0].Turnaround())
	}
}

func TestCheckpointCostsMoreThanReshape(t *testing.T) {
	p := perfmodel.SystemX()
	jobs := []JobInput{luJob("LU", 12000, topo(1, 2), 0, 10)}
	re, err := New(50, Dynamic, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := New(50, DynamicCheckpoint, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Jobs[0].TotalRedist <= re.Jobs[0].TotalRedist {
		t.Errorf("checkpoint redist %.1f should exceed reshape %.1f",
			ck.Jobs[0].TotalRedist, re.Jobs[0].TotalRedist)
	}
	ratio := ck.Jobs[0].TotalRedist / re.Jobs[0].TotalRedist
	if ratio < 3 {
		t.Errorf("checkpoint/reshape ratio %.1f too small", ratio)
	}
}

func TestQueuedJobTriggersShrink(t *testing.T) {
	// Job A grows across a 16-proc cluster; when B arrives needing 8, A
	// must shrink back so B can start.
	p := perfmodel.SystemX()
	jobs := []JobInput{
		luJob("A", 12000, topo(1, 2), 0, 10),
		luJob("B", 12000, topo(2, 4), 400, 4),
	}
	res, err := New(16, Dynamic, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	var a, b JobResult
	for _, j := range res.Jobs {
		switch j.Name {
		case "A":
			a = j
		case "B":
			b = j
		}
	}
	if b.Start <= b.Submit {
		t.Error("B should have waited in the queue")
	}
	shrunk := false
	for i := 1; i < len(a.Iters); i++ {
		if a.Iters[i].Procs < a.Iters[i-1].Procs {
			shrunk = true
		}
	}
	if !shrunk {
		t.Errorf("A never shrank: %+v", a.Iters)
	}
	if b.End == 0 {
		t.Error("B never finished")
	}
}

// TestUtilizationBounds holds utilization within (0, 1], and to the same
// bits with the trace off: both runs read the core's busy-time integral.
func TestUtilizationBounds(t *testing.T) {
	p := perfmodel.SystemX()
	jobs := []JobInput{
		luJob("A", 12000, topo(2, 2), 0, 5),
		luJob("B", 8000, topo(2, 2), 100, 5),
	}
	for _, mode := range []Mode{Static, Dynamic} {
		var util, busy [2]float64
		for i, traced := range []bool{true, false} {
			core := scheduler.NewCore(20, true)
			if !traced {
				core.DisableTrace()
			}
			res, err := New(20, mode, p, jobs).WithCore(core).Run()
			if err != nil {
				t.Fatal(err)
			}
			util[i], busy[i] = res.Utilization, core.BusySeconds(res.Makespan)
		}
		if util[0] <= 0 || util[0] > 1 {
			t.Errorf("%v utilization %v out of range", mode, util[0])
		}
		if util[1] != util[0] || busy[1] != busy[0] {
			t.Errorf("%v: trace off gives utilization %v and busy %v s, traced %v and %v s", mode, util[1], busy[1], util[0], busy[0])
		}
	}
}

func TestDynamicImprovesUtilization(t *testing.T) {
	p := perfmodel.SystemX()
	jobs := []JobInput{
		luJob("A", 21000, topo(2, 3), 0, 10),
		luJob("B", 14000, topo(2, 4), 0, 10),
	}
	st, err := New(36, Static, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	dy, err := New(36, Dynamic, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	if dy.Utilization <= st.Utilization {
		t.Errorf("dynamic utilization %.3f should exceed static %.3f",
			dy.Utilization, st.Utilization)
	}
}

func TestAllocAndBusySeries(t *testing.T) {
	p := perfmodel.SystemX()
	jobs := []JobInput{luJob("LU", 12000, topo(1, 2), 0, 6)}
	res, err := New(20, Dynamic, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	alloc := res.AllocSeries("LU")
	if len(alloc) < 3 {
		t.Fatalf("alloc series too short: %v", alloc)
	}
	if alloc[0][1] != 2 {
		t.Errorf("first allocation %v, want 2 procs", alloc[0])
	}
	if alloc[len(alloc)-1][1] != 0 {
		t.Errorf("series should end at 0 procs: %v", alloc[len(alloc)-1])
	}
	busy := res.BusySeries()
	for _, pt := range busy {
		if pt[1] < 0 || pt[1] > 20 {
			t.Errorf("busy point %v out of range", pt)
		}
	}
}

func TestFCFSQueueingInSim(t *testing.T) {
	// Two jobs that cannot co-run: the second starts only after the first
	// completes.
	p := perfmodel.SystemX()
	jobs := []JobInput{
		luJob("A", 12000, topo(3, 4), 0, 3),
		luJob("B", 12000, topo(3, 4), 1, 3),
	}
	res, err := New(12, Static, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	var a, b JobResult
	for _, j := range res.Jobs {
		if j.Name == "A" {
			a = j
		} else {
			b = j
		}
	}
	if b.Start < a.End {
		t.Errorf("B started at %.1f before A ended at %.1f", b.Start, a.End)
	}
}

func TestMasterWorkerNoRedistCost(t *testing.T) {
	p := perfmodel.SystemX()
	chain := []grid.Topology{grid.Row1D(2), grid.Row1D(4), grid.Row1D(6)}
	jobs := []JobInput{{
		Spec: scheduler.JobSpec{
			Name: "MW", App: "mw", Iterations: 6,
			InitialTopo: chain[0], Chain: chain,
		},
		Model: perfmodel.AppModel{App: "mw", MWWorkSeconds: 14.7},
	}}
	res, err := New(10, Dynamic, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].TotalRedist != 0 {
		t.Errorf("MW redist cost %v, want 0", res.Jobs[0].TotalRedist)
	}
	grew := false
	for _, r := range res.Jobs[0].Iters {
		if r.Procs > 2 {
			grew = true
		}
	}
	if !grew {
		t.Error("MW never expanded")
	}
}

// TestIterRecordsCarryTopology: each kept iteration row names the
// configuration the iteration ran on, formatted as before — Topo.String()
// and Topo.Count() of the job's latest start, expand or shrink — and
// WithoutIterRecords keeps no rows without changing the outcome.
func TestIterRecordsCarryTopology(t *testing.T) {
	p := perfmodel.SystemX()
	jobs := []JobInput{
		luJob("a", 12000, topo(1, 2), 0, 12),
		luJob("b", 14000, topo(2, 2), 50, 10),
		luJob("c", 8000, topo(2, 3), 100, 10),
		luJob("d", 21000, topo(4, 4), 150, 6),
	}
	res, err := New(50, Dynamic, p, jobs).Run()
	if err != nil {
		t.Fatal(err)
	}
	held := map[string][]grid.Topology{}
	for _, e := range res.Events {
		switch e.Kind {
		case "start", "expand", "shrink":
			held[e.Job] = append(held[e.Job], e.Topo)
		}
	}
	resized := 0
	for _, j := range res.Jobs {
		var runs []IterRecord
		for _, r := range j.Iters {
			if len(runs) == 0 || runs[len(runs)-1].Topo != r.Topo {
				runs = append(runs, r)
			}
		}
		want := held[j.Name]
		if len(runs) != len(want) {
			t.Fatalf("job %s: rows run on %d configurations, events name %d", j.Name, len(runs), len(want))
		}
		for i, r := range runs {
			if r.Topo != want[i].String() || r.Procs != want[i].Count() {
				t.Fatalf("job %s configuration %d: row says %q on %d procs, events say %v", j.Name, i, r.Topo, r.Procs, want[i])
			}
		}
		resized += len(want) - 1
	}
	if resized == 0 {
		t.Fatal("no job resized: the rows name one configuration each")
	}
	bare, err := New(50, Dynamic, p, jobs).WithoutIterRecords().Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range bare.Jobs {
		if j.Iters != nil {
			t.Fatalf("job %s kept %d rows under WithoutIterRecords", j.Name, len(j.Iters))
		}
	}
	if bare.Makespan != res.Makespan {
		t.Fatalf("makespan %v without rows, %v with", bare.Makespan, res.Makespan)
	}
}
