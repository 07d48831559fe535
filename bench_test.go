// Package repro's benchmark harness: one benchmark per table and figure of
// the paper (running the virtual-time reproduction at full System X scale)
// plus real-runtime microbenchmarks of the redistribution library, the
// distributed kernels and the message-passing layer, and the ablation
// benches called out in DESIGN.md.
//
//	go test -bench=. -benchmem
package repro

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/blacs"
	"repro/internal/blockcyclic"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/redistrib"
	"repro/internal/resize"
	"repro/internal/scheduler"
	"repro/internal/scheduler/fairshare"
	"repro/internal/scheduler/modes"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// --- Paper experiments (virtual time, System X scale) ------------------------

func BenchmarkTable2Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table2(); len(rows) != 10 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

func BenchmarkFig2aLUSweep(b *testing.B) {
	params := perfmodel.SystemX()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2a(params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2bRedistOverhead(b *testing.B) {
	params := perfmodel.SystemX()
	for i := 0; i < b.N; i++ {
		if data := experiments.Fig2b(params); len(data) != 7 {
			b.Fatal("missing series")
		}
	}
}

func BenchmarkFig3aResizeTrace(b *testing.B) {
	params := perfmodel.SystemX()
	for i := 0; i < b.N; i++ {
		iters, err := experiments.Fig3a(params)
		if err != nil {
			b.Fatal(err)
		}
		if len(iters) != 10 {
			b.Fatalf("%d iterations", len(iters))
		}
	}
}

func BenchmarkFig3bCheckpointVsReshape(b *testing.B) {
	params := perfmodel.SystemX()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig3b(params)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

func BenchmarkFig4Workload1(b *testing.B) {
	params := perfmodel.SystemX()
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunW1(params)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*cmp.StaticUtilization, "static-util-%")
			b.ReportMetric(100*cmp.DynamicUtilization, "dynamic-util-%")
		}
	}
}

func BenchmarkTable4Turnaround(b *testing.B) {
	params := perfmodel.SystemX()
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunW1(params)
		if err != nil {
			b.Fatal(err)
		}
		if len(cmp.Rows) != 5 {
			b.Fatalf("%d rows", len(cmp.Rows))
		}
	}
}

func BenchmarkFig5Workload2(b *testing.B) {
	params := perfmodel.SystemX()
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunW2(params)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*cmp.DynamicUtilization, "dynamic-util-%")
		}
	}
}

func BenchmarkTable5Turnaround(b *testing.B) {
	params := perfmodel.SystemX()
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunW2(params)
		if err != nil {
			b.Fatal(err)
		}
		if len(cmp.Rows) != 4 {
			b.Fatalf("%d rows", len(cmp.Rows))
		}
	}
}

// BenchmarkWorkloadSimScale measures simulator throughput on a heavier
// synthetic mix (20 jobs), showing the virtual-time engine itself is cheap.
func BenchmarkWorkloadSimScale(b *testing.B) {
	params := perfmodel.SystemX()
	var jobs []simcluster.JobInput
	sizes := []int{8000, 12000, 14000, 16000, 20000}
	for i := 0; i < 20; i++ {
		n := sizes[i%len(sizes)]
		start := experiments.StartTopo(n)
		jobs = append(jobs, simcluster.JobInput{
			Spec: scheduler.JobSpec{
				Name: "job", App: "lu", ProblemSize: n, Iterations: 10,
				InitialTopo: start, Chain: experiments.Chain(n),
			},
			Model:   perfmodel.AppModel{App: "lu", N: n},
			Arrival: float64(i) * 120,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, jobs).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerThroughput measures the scheduler engine end to end on
// large generated workloads driven through the virtual-time simulator: a
// 1024-processor cluster, exponential arrivals, and the full resize-policy
// machinery, at three decades of job count. The 100k- and 1M-job cases
// run with allocation tracing and per-iteration result rows disabled
// (utilization stays exact via the busy-time integral). Allocation stats
// are reported so CI's -benchmem run lands allocs/op and B/op in
// BENCH_scheduler.json alongside jobs/s, and allocs/job divides the heap
// allocations of the runs by the jobs they simulated.
func BenchmarkSchedulerThroughput(b *testing.B) {
	params := perfmodel.SystemX()
	const clusterProcs = 1024
	mix := func(b *testing.B, jobs int) []simcluster.JobInput {
		in, err := workload.Generate(workload.GenConfig{
			Seed: 7, Jobs: jobs, MeanInterarrival: 2, MaxProcs: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		return in
	}
	run := func(b *testing.B, jobs int, lean bool, mk func() *scheduler.Core) {
		in := mix(b, jobs)
		b.ReportAllocs()
		b.ResetTimer()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < b.N; i++ {
			sim := simcluster.New(clusterProcs, simcluster.Dynamic, params, in).WithCore(mk())
			if lean {
				sim.WithoutIterRecords()
			}
			res, err := sim.Run()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Jobs) != jobs {
				b.Fatalf("%d jobs finished, want %d", len(res.Jobs), jobs)
			}
		}
		runtime.ReadMemStats(&m1)
		b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/(float64(jobs)*float64(b.N)), "allocs/job")
	}
	b.Run("event-10k", func(b *testing.B) {
		run(b, 10_000, false, func() *scheduler.Core {
			return scheduler.NewCore(clusterProcs, true)
		})
	})
	b.Run("event-100k", func(b *testing.B) {
		run(b, 100_000, true, func() *scheduler.Core {
			c := scheduler.NewCore(clusterProcs, true)
			c.DisableTrace()
			return c
		})
	})
	// The 1M-job case extends the scaling curve one more decade: CI tracks
	// it in BENCH_scheduler.json (and gates jobs/s@1M against jobs/s@10k,
	// see cmd/benchjson -gate) so super-linear regressions in the queue
	// indexes show up as a bend between 100k and 1M.
	b.Run("event-1M", func(b *testing.B) {
		run(b, 1_000_000, true, func() *scheduler.Core {
			c := scheduler.NewCore(clusterProcs, true)
			c.DisableTrace()
			return c
		})
	})
}

// BenchmarkArbiter measures cluster-wide arbitration end to end on the
// contended Table-3-style mix (24 jobs, 3 priority levels, arrivals well
// above the W1/W2 rate) under the published FCFS single-job path; the
// benefit-ranked arbiter with a perfmodel predictor on the same mix is
// BenchmarkRebalance/reactive. mean-wait-s and p99-wait-s make the
// queue-wait win (and its tail) visible next to the throughput cost of the
// cluster-wide snapshot reads; the noisy cases run the three-tenant
// noisy-neighbor mix under benefit and fairshare and additionally report
// the steady victims' tail wait as victim-p99-s. CI uploads every series
// in BENCH_scheduler.json.
func BenchmarkArbiter(b *testing.B) {
	jobs, err := experiments.ContendedMix()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fcfs", func(b *testing.B) { benchWaits(b, jobs, "fcfs") })
	noisy, err := experiments.NoisyNeighborMix()
	if err != nil {
		b.Fatal(err)
	}
	victimP99 := func(res *simcluster.Result) float64 {
		return max(res.TenantQueueWaitP99("victim1"), res.TenantQueueWaitP99("victim2"))
	}
	b.Run("benefit-noisy", func(b *testing.B) {
		b.ReportMetric(victimP99(benchWaits(b, noisy, "benefit")), "victim-p99-s")
	})
	b.Run("fairshare-noisy", func(b *testing.B) {
		b.ReportMetric(victimP99(benchWaits(b, noisy, "fairshare")), "victim-p99-s")
	})
}

// benchWaits runs benchMode without planning ticks and reports the last
// run's mean and p99 queue wait.
func benchWaits(b *testing.B, jobs []simcluster.JobInput, mode string) *simcluster.Result {
	res := benchMode(b, jobs, mode, nil)
	b.ReportMetric(res.MeanQueueWait(), "mean-wait-s")
	b.ReportMetric(res.QueueWaitP99(), "p99-wait-s")
	return res
}

// benchMode simulates jobs b.N times under an arbiter mode with the oracle
// predictor and reports jobs/s; a non-nil tp wraps the arbiter and turns
// the planning ticks on. It returns the last run.
func benchMode(b *testing.B, jobs []simcluster.JobInput, mode string, tp *timedPlanner) *simcluster.Result {
	params := perfmodel.SystemX()
	var res *simcluster.Result
	for i := 0; i < b.N; i++ {
		arb, err := modes.Build(mode, modes.Inputs{
			Predict:    simcluster.Predictor(params, jobs),
			RedistCost: simcluster.RedistPredictor(params, jobs),
		})
		if err != nil {
			b.Fatal(err)
		}
		sim := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, jobs)
		if tp != nil {
			tp.Arbiter = arb
			arb = tp
			sim.WithRebalance(experiments.DefaultRebalanceTick)
		}
		if res, err = sim.WithArbiter(arb).Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	return res
}

// timedPlanner wraps a Planner arbiter and accumulates wall time spent
// inside Rebalance ticks, so the planning cost can be reported as its own
// metric instead of silently deflating jobs/s. It deliberately does not
// forward StartPicker (the wrapped rebalancer isn't one), so SetArbiter
// sees the same method set as the unwrapped arbiter.
type timedPlanner struct {
	scheduler.Arbiter
	planNS int64
	ticks  int64
}

func (t *timedPlanner) Rebalance(snap scheduler.ClusterSnapshot) {
	start := time.Now()
	t.Arbiter.(scheduler.Planner).Rebalance(snap)
	t.planNS += time.Since(start).Nanoseconds()
	t.ticks++
}

// BenchmarkRebalance measures the global rebalancer end to end on the same
// contended mix as BenchmarkArbiter: the reactive benefit-ranked arbiter
// alone versus the planning layer ticking every
// experiments.DefaultRebalanceTick seconds. makespan-s exposes the
// scheduling win the planner buys; jobs/s its total throughput cost. The
// reactive case is also the benefit-ranked arbiter's row against
// BenchmarkArbiter/fcfs, so it reports mean-wait-s and p99-wait-s too. The
// rebalance case additionally splits the planner-tick cost into plan-ns/op
// (mean wall time per planning tick) and sched-jobs/s (throughput with
// planning time subtracted), so the reactive and planned modes compare on
// the same scheduling work. CI runs it at -benchtime 50x, uploads every
// series in BENCH_scheduler.json and gates the planner tax: rebalance jobs/s
// must stay above 0.15 of reactive jobs/s (≈ 0.4 measured; a tick that
// formats keys or rebuilds its working set per job lands near 0.07).
func BenchmarkRebalance(b *testing.B) {
	jobs, err := experiments.ContendedMix()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reactive", func(b *testing.B) {
		b.ReportMetric(benchWaits(b, jobs, "benefit").Makespan, "makespan-s")
	})
	b.Run("rebalance", func(b *testing.B) {
		tp := &timedPlanner{}
		b.ReportMetric(benchMode(b, jobs, "rebalance", tp).Makespan, "makespan-s")
		if tp.ticks > 0 {
			b.ReportMetric(float64(tp.planNS)/float64(tp.ticks), "plan-ns/op")
		}
		if sched := b.Elapsed().Seconds() - float64(tp.planNS)/1e9; sched > 0 {
			b.ReportMetric(float64(len(jobs))*float64(b.N)/sched, "sched-jobs/s")
		}
	})
}

// --- Real-runtime redistribution benches --------------------------------------

// benchRedistribute moves a m x m matrix between two grids with a one-array
// MultiPlan on real goroutine ranks and reports bytes/s.
func benchRedistribute(b *testing.B, m, nb int, from, to grid.Topology) {
	src := blockcyclic.Layout{M: m, N: m, MB: nb, NB: nb, Grid: from}
	dst := blockcyclic.Layout{M: m, N: m, MB: nb, NB: nb, Grid: to}
	global := make([]float64, m*m)
	rng := rand.New(rand.NewSource(1))
	for i := range global {
		global[i] = rng.Float64()
	}
	pieces := blockcyclic.Distribute(global, src)
	mp, err := redistrib.NewMultiPlan([]blockcyclic.Layout{src}, []blockcyclic.Layout{dst})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(m * m * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(max(from.Count(), to.Count()), func(c *mpi.Comm) error {
			var mine []float64
			if c.Rank() < from.Count() {
				mine = pieces[c.Rank()].Data
			}
			mp.ExecuteStats(c, [][]float64{mine})
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealRedistributeExpand4to6(b *testing.B) {
	benchRedistribute(b, 240, 8, grid.Topology{Rows: 2, Cols: 2}, grid.Topology{Rows: 2, Cols: 3})
}

func BenchmarkRealRedistributeShrink6to4(b *testing.B) {
	benchRedistribute(b, 240, 8, grid.Topology{Rows: 2, Cols: 3}, grid.Topology{Rows: 2, Cols: 2})
}

func BenchmarkRealRedistribute1D(b *testing.B) {
	benchRedistribute(b, 240, 8, grid.Row1D(3), grid.Row1D(4))
}

// BenchmarkRedistribute runs the fused MultiPlan engine on real goroutine
// ranks: three arrays over one grid pair in one execution, with msgs/op
// counting the fused messages (9 on the expansion, 32 on the shrink; one
// execution per array would send 3x as many). MB/s and B/op track how
// often each byte is touched: session-oscillate drives a real
// resize.Session back and forth between two grids, where recycled pieces
// and pooled wire buffers should leave B/op far below the bytes moved.
func BenchmarkRedistribute(b *testing.B) {
	const m, nb = 240, 8
	mkCase := func(nArrays int, from, to grid.Topology) ([]blockcyclic.Layout, []blockcyclic.Layout, [][]*blockcyclic.Matrix, int) {
		srcs := make([]blockcyclic.Layout, nArrays)
		dsts := make([]blockcyclic.Layout, nArrays)
		pieces := make([][]*blockcyclic.Matrix, nArrays)
		rng := rand.New(rand.NewSource(1))
		for a := 0; a < nArrays; a++ {
			srcs[a] = blockcyclic.Layout{M: m, N: m, MB: nb, NB: nb, Grid: from}
			dsts[a] = blockcyclic.Layout{M: m, N: m, MB: nb, NB: nb, Grid: to}
			global := make([]float64, m*m)
			for i := range global {
				global[i] = rng.Float64()
			}
			pieces[a] = blockcyclic.Distribute(global, srcs[a])
		}
		world := from.Count()
		if to.Count() > world {
			world = to.Count()
		}
		return srcs, dsts, pieces, world
	}
	type gridPair struct {
		name     string
		from, to grid.Topology
	}
	pairs := []gridPair{
		{"expand4to6", grid.Topology{Rows: 2, Cols: 2}, grid.Topology{Rows: 2, Cols: 3}},
		{"shrink9to4", grid.Topology{Rows: 3, Cols: 3}, grid.Topology{Rows: 2, Cols: 2}},
	}
	const nArrays = 3
	for _, pair := range pairs {
		srcs, dsts, pieces, world := mkCase(nArrays, pair.from, pair.to)
		b.Run("multi-3arrays-"+pair.name, func(b *testing.B) {
			mp, err := redistrib.NewMultiPlan(srcs, dsts)
			if err != nil {
				b.Fatal(err)
			}
			var msgs atomic.Int64
			b.SetBytes(int64(nArrays * m * m * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := mpi.Run(world, func(c *mpi.Comm) error {
					mine := make([][]float64, nArrays)
					if c.Rank() < pair.from.Count() {
						for a := 0; a < nArrays; a++ {
							mine[a] = pieces[a][c.Rank()].Data
						}
					}
					_, st := mp.ExecuteStats(c, mine)
					msgs.Add(int64(st.MessagesSent))
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(msgs.Load())/float64(b.N), "msgs/op")
		})
	}
	b.Run("session-oscillate", func(b *testing.B) {
		small, large := grid.Topology{Rows: 2, Cols: 2}, grid.Topology{Rows: 3, Cols: 3}
		cycle := func(s *resize.Session) error {
			if err := s.RedistributeAll(small, large); err != nil {
				return err
			}
			return s.RedistributeAll(large, small)
		}
		// One op is a full cycle: every array crosses the wire twice.
		b.SetBytes(int64(2 * nArrays * m * m * 8))
		b.ReportAllocs()
		err := mpi.Run(large.Count(), func(c *mpi.Comm) error {
			s, err := resize.NewSession(resize.NullClient{}, 1, c, small, nil)
			if err != nil {
				return err
			}
			for a := 0; a < nArrays; a++ {
				arr := &resize.Array{Name: string(rune('A' + a)), M: m, N: m, MB: nb, NB: nb}
				if c.Rank() < small.Count() {
					arr.Data = make([]float64, arr.LayoutFor(small).LocalSize(c.Rank()))
				}
				s.RegisterArray(arr)
			}
			// Warm-up: plans cached, spares and wire buffers in place.
			for i := 0; i < 3; i++ {
				if err := cycle(s); err != nil {
					return err
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if err := cycle(s); err != nil {
					return err
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				b.StopTimer()
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	// Plan-construction cost the process-wide plan cache amortizes away on
	// repeated oscillation between the same grid pair.
	b.Run("plan-build-3arrays", func(b *testing.B) {
		srcs, dsts, _, _ := mkCase(nArrays, pairs[0].from, pairs[0].to)
		for i := 0; i < b.N; i++ {
			if _, err := redistrib.NewMultiPlan(srcs, dsts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Schedule construction ----------------------------------------------------

func BenchmarkScheduleCirculant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		redistrib.Schedule1D(36, 48)
	}
	b.ReportMetric(float64(len(redistrib.Schedule1D(36, 48))), "steps")
}

// --- Policy ablation and load sweep -------------------------------------------

func BenchmarkAblationPolicies(b *testing.B) {
	params := perfmodel.SystemX()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PolicyAblation(params)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Policy == "paper" {
					b.ReportMetric(100*r.Utilization, "paper-util-%")
				}
			}
		}
	}
}

func BenchmarkLoadSweep(b *testing.B) {
	params := perfmodel.SystemX()
	for i := 0; i < b.N; i++ {
		pts, err := workload.LoadSweep(36, params, 12, 5, []float64{200, 800})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 2 {
			b.Fatal("missing points")
		}
	}
}

// --- Real distributed kernels -------------------------------------------------

func BenchmarkRealDistLU(b *testing.B) {
	const n, nb = 96, 8
	topo := grid.Topology{Rows: 2, Cols: 2}
	l := blockcyclic.Layout{M: n, N: n, MB: nb, NB: nb, Grid: topo}
	global := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			global[i*n+j] = 1.0 / (1.0 + float64((i-j)*(i-j)))
		}
		global[i*n+i] += float64(n)
	}
	pieces := blockcyclic.Distribute(global, l)
	b.ReportAllocs()
	b.SetBytes(int64(n * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(4, func(c *mpi.Comm) error {
			ctx, err := blacs.New(c, topo)
			if err != nil {
				return err
			}
			local := make([]float64, len(pieces[c.Rank()].Data))
			copy(local, pieces[c.Rank()].Data)
			return apps.DistLU(ctx, l, local)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealDistMatMul(b *testing.B) {
	const n, nb = 64, 8
	topo := grid.Topology{Rows: 2, Cols: 2}
	l := blockcyclic.Layout{M: n, N: n, MB: nb, NB: nb, Grid: topo}
	global := make([]float64, n*n)
	for i := range global {
		global[i] = float64(i % 17)
	}
	aP := blockcyclic.Distribute(global, l)
	bP := blockcyclic.Distribute(global, l)
	b.SetBytes(int64(2 * n * n * n)) // flops as bytes proxy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(4, func(c *mpi.Comm) error {
			ctx, err := blacs.New(c, topo)
			if err != nil {
				return err
			}
			out := make([]float64, len(aP[c.Rank()].Data))
			return apps.DistMatMul(ctx, l, aP[c.Rank()].Data, bP[c.Rank()].Data, out)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealFFT2D(b *testing.B) {
	const n = 64
	topo := grid.Row1D(4)
	l := blockcyclic.Layout{M: n, N: 2 * n, MB: 2, NB: 2 * n, Grid: topo}
	global := make([]float64, n*2*n)
	for i := range global {
		global[i] = float64(i % 13)
	}
	pieces := blockcyclic.Distribute(global, l)
	b.ReportAllocs()
	b.SetBytes(int64(n * n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(4, func(c *mpi.Comm) error {
			ctx, err := blacs.New(c, topo)
			if err != nil {
				return err
			}
			local := make([]float64, len(pieces[c.Rank()].Data))
			copy(local, pieces[c.Rank()].Data)
			return apps.FFT2D(ctx, l, local, false)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealDistJacobi is one sweep (and its residual) of the
// repository benchmark's Jacobi system on two ranks: each rank walks 640
// rows of 1280 against the replicated x.
func BenchmarkRealDistJacobi(b *testing.B) {
	const n, nb = 1280, 8
	topo := grid.Row1D(2)
	l := blockcyclic.Layout{M: n, N: n, MB: nb, NB: n, Grid: topo}
	lb := blockcyclic.Layout{M: n, N: 1, MB: nb, NB: 1, Grid: topo}
	global := make([]float64, n*n)
	rhs := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			global[i*n+j] = 1.0 / (1.0 + float64((i+j)%7))
		}
		global[i*n+i] = n
		rhs[i] = 1 + float64(i%5)
	}
	aP := blockcyclic.Distribute(global, l)
	bP := blockcyclic.Distribute(rhs, lb)
	b.SetBytes(int64(2 * n * n * 8)) // the sweep and the residual each read A once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			ctx, err := blacs.New(c, topo)
			if err != nil {
				return err
			}
			x := make([]float64, n)
			_, err = apps.JacobiSweeps(ctx, l, aP[c.Rank()].Data, bP[c.Rank()].Data, x, 1)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRealDistCG(b *testing.B) {
	const n, nb = 48, 4
	topo := grid.Topology{Rows: 2, Cols: 2}
	l := blockcyclic.Layout{M: n, N: n, MB: nb, NB: nb, Grid: topo}
	global := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			global[i*n+j] = 1.0 / (1.0 + float64((i-j)*(i-j)))
		}
		global[i*n+i] += float64(n)
	}
	pieces := blockcyclic.Distribute(global, l)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(4, func(c *mpi.Comm) error {
			ctx, err := blacs.New(c, topo)
			if err != nil {
				return err
			}
			x := make([]float64, n)
			_, err = apps.DistCG(ctx, l, pieces[c.Rank()].Data, rhs, x, 8)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Runtime microbenchmarks ---------------------------------------------------

func BenchmarkMPIAllreduce8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		err := mpi.Run(8, func(c *mpi.Comm) error {
			xs := []float64{float64(c.Rank())}
			for k := 0; k < 10; k++ {
				c.Allreduce(xs, mpi.SumOp)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPISpawnMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		err := mpi.Run(2, func(c *mpi.Comm) error {
			ic := c.Spawn(2, func(child *mpi.Intercomm) error {
				m := child.Merge()
				m.Barrier()
				return nil
			})
			m := ic.Merge()
			m.Barrier()
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerContact isolates the per-contact cost of the resize
// decision path — the loop every running job drives at every iteration.
// Tracing is off so the numbers reflect the decision machinery, and
// allocations are reported: the steady-state contact path (snapshot
// construction, queued-window views, policy decision) is required to stay
// at ~0 allocs/op. "steady" is the published single-job path on an idle
// queue; "steady-arbiter" routes the same contact through the default
// cluster-wide arbiter so the ClusterSnapshot path is measured;
// "backlog-arbiter" adds a wait-queue backlog so the queued-window cache
// and queue-pressure policy branches are on the hot path;
// "fairshare-backlog" is a contact under the fair-share arbiter against 200
// running jobs of three tenants and a deep queue, with a standing shrink
// plan on other jobs — the contact whose cost must not depend on the size
// of the running set (run it at -benchtime 2000x); "fairshare-veto" is a
// fair-share contact with nothing queued whose expansion the benefit
// ranking vetoes, walking the ten of 200 running jobs that contend for the
// idle pool.
func BenchmarkSchedulerContact(b *testing.B) {
	submit := func(b *testing.B, core *scheduler.Core, need int, at float64) *scheduler.Job {
		job, _, err := core.Submit(scheduler.JobSpec{
			Name: "lu", App: "lu", ProblemSize: 12000, Iterations: 1 << 30,
			InitialTopo: grid.Topology{Rows: 3, Cols: need / 3},
			Chain:       experiments.Chain(12000),
		}, at)
		if err != nil {
			b.Fatal(err)
		}
		return job
	}
	contactLoop := func(b *testing.B, core *scheduler.Core, job *scheduler.Job) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Contact(job.ID, job.Topo, 50.0, 0, float64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("steady", func(b *testing.B) {
		core := scheduler.NewCore(50, true)
		core.DisableTrace()
		contactLoop(b, core, submit(b, core, 12, 0))
	})
	b.Run("steady-arbiter", func(b *testing.B) {
		core := scheduler.NewCore(50, true)
		core.DisableTrace()
		core.SetArbiter(scheduler.PolicyArbiter{})
		contactLoop(b, core, submit(b, core, 12, 0))
	})
	b.Run("backlog-arbiter", func(b *testing.B) {
		core := scheduler.NewCore(50, false) // no backfill: the backlog stays queued
		core.DisableTrace()
		core.SetArbiter(scheduler.PolicyArbiter{})
		job := submit(b, core, 12, 0)
		submit(b, core, 36, 0) // occupies the rest of the pool
		for i := 0; i < 30; i++ {
			submit(b, core, 36, 0) // backlog: waits behind the full pool
		}
		contactLoop(b, core, job)
	})
	b.Run("fairshare-backlog", func(b *testing.B) {
		core, job := fairshareBacklog(b)
		contactLoop(b, core, job)
	})
	b.Run("fairshare-veto", func(b *testing.B) {
		core, job := fairshareVeto(b, 200)
		contactLoop(b, core, job)
	})
}

// vetoContenders is how many of fairshareVeto's running jobs contend with
// the caller for the idle pool, whatever the size of the running set.
const vetoContenders = 10

// fairshareVeto builds the fair-share expansion-veto fixture: a cluster
// running n two-processor jobs of three equally weighted tenants with two
// processors idle and nothing queued. The caller (job 0) and the next
// vetoContenders jobs step up by two processors and contend for the idle
// pair; every other job steps up by six, which the pool cannot hold. Each
// job has measured its current configuration and the predictor rates every
// contender's step far above the caller's, so each of the caller's contacts
// is a probe the ranking vetoes in favour of job 1.
func fairshareVeto(tb testing.TB, n int) (*scheduler.Core, *scheduler.Job) {
	core := scheduler.NewCore(2*n+2, false)
	core.DisableTrace()
	fs := fairshare.New(nil)
	fs.Inner.Predict = func(jobID int, _ grid.Topology) (float64, bool) {
		if jobID == 0 {
			return 45, true
		}
		return 10, true
	}
	core.SetArbiter(fs)
	tenants := []string{"blue", "green", "red"}
	submit := func(i int, chain []grid.Topology) *scheduler.Job {
		job, _, err := core.Submit(scheduler.JobSpec{
			Name: "lu", App: "lu", ProblemSize: 12000, Iterations: 1 << 30,
			Tenant: tenants[i%len(tenants)], InitialTopo: chain[0], Chain: chain,
		}, 0)
		if err != nil {
			tb.Fatal(err)
		}
		return job
	}
	near := []grid.Topology{{Rows: 1, Cols: 2}, {Rows: 2, Cols: 2}}
	far := []grid.Topology{{Rows: 1, Cols: 2}, {Rows: 2, Cols: 4}}
	var running []*scheduler.Job
	for i := 0; i < n; i++ {
		chain := far
		if i <= vetoContenders {
			chain = near
		}
		running = append(running, submit(i, chain))
	}
	filler := submit(n, near[:1])
	for _, j := range running {
		d, err := core.Contact(j.ID, j.Topo, 50, 0, 1)
		if err != nil || d.Action != scheduler.ActionNone {
			tb.Fatalf("fixture: job %d on a full pool answered %+v, %v", j.ID, d, err)
		}
	}
	if _, err := core.Finish(filler.ID, 1); err != nil {
		tb.Fatal(err)
	}
	caller := running[0]
	d, err := core.Contact(caller.ID, caller.Topo, 50, 0, 2)
	if err != nil || d.Reason != "yielding idle pool to job 1 (higher benefit per processor)" {
		tb.Fatalf("fixture: first veto contact answered %+v, %v", d, err)
	}
	return core, caller
}

// fairshareBacklog builds the fair-share contact fixture: a 1024-processor
// cluster running 200 two-processor jobs of three equally weighted tenants,
// twenty of which have probed one rung up (the donors a shrink plan can
// draft), and forty queued jobs that each need eight processors more than
// are idle. One warm-up contact makes the arbiter plan the head's deficit
// onto four donors; the returned job is not one of them, so each of its
// contacts finds the plan standing and is told to hold.
func fairshareBacklog(tb testing.TB) (*scheduler.Core, *scheduler.Job) {
	core := scheduler.NewCore(1024, false) // no backfill: the backlog stays queued
	core.DisableTrace()
	core.SetArbiter(fairshare.New(nil))
	tenants := []string{"blue", "green", "red"}
	submit := func(i int, topo grid.Topology) *scheduler.Job {
		job, _, err := core.Submit(scheduler.JobSpec{
			Name: "lu", App: "lu", ProblemSize: 12000, Iterations: 1 << 30,
			Tenant: tenants[i%len(tenants)], InitialTopo: topo,
			Chain: []grid.Topology{{Rows: 1, Cols: 2}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 4}},
		}, 0)
		if err != nil {
			tb.Fatal(err)
		}
		return job
	}
	var running []*scheduler.Job
	for i := 0; i < 200; i++ {
		running = append(running, submit(i, grid.Topology{Rows: 1, Cols: 2}))
	}
	for i := 0; i < len(running); i += 10 {
		j := running[i]
		d, err := core.Contact(j.ID, j.Topo, 50, 0, 1)
		if err != nil || d.Action != scheduler.ActionExpand {
			tb.Fatalf("fixture: job %d did not probe up: %+v, %v", j.ID, d, err)
		}
		if _, err := core.ResizeComplete(j.ID, 0.1, 1); err != nil {
			tb.Fatal(err)
		}
	}
	need := core.Free() + 8
	for i := 0; i < 40; i++ {
		submit(i, grid.Topology{Rows: 8, Cols: need / 8})
	}
	caller := running[1]
	d, err := core.Contact(caller.ID, caller.Topo, 50, 0, 2)
	if err != nil || d.Reason != "shrink assigned to other jobs" {
		tb.Fatalf("fixture: warm-up contact answered %+v, %v", d, err)
	}
	return core, caller
}

// TestFairshareContactAllocs holds a fair-share contact with an unchanged
// shrink plan to two allocations, whatever the size of the running set: the
// snapshot's tenant usage, the share table and the plan check all run on
// reused scratch (the profile's own append is what is left).
func TestFairshareContactAllocs(t *testing.T) {
	core, job := fairshareBacklog(t)
	now := 2.0
	allocs := testing.AllocsPerRun(500, func() {
		now += 0.01
		d, err := core.Contact(job.ID, job.Topo, 50, 0, now)
		if err != nil || d.Reason != "shrink assigned to other jobs" {
			t.Fatalf("contact answered %+v, %v", d, err)
		}
	})
	if allocs > 2 {
		t.Fatalf("fair-share contact with an unchanged plan: %.0f allocations, want at most 2", allocs)
	}
}

// TestFairshareVetoContactAllocs holds a fair-share contact whose expansion
// is vetoed to one allocation — the veto's formatted reason — at 200 and at
// 2 000 running jobs alike: the walk's state and callback live on the
// arbiter, and it visits only the contending jobs.
func TestFairshareVetoContactAllocs(t *testing.T) {
	for _, n := range []int{200, 2000} {
		core, job := fairshareVeto(t, n)
		now := 2.0
		allocs := testing.AllocsPerRun(500, func() {
			now += 0.01
			d, err := core.Contact(job.ID, job.Topo, 50, 0, now)
			if err != nil || d.Reason != "yielding idle pool to job 1 (higher benefit per processor)" {
				t.Fatalf("%d running: contact answered %+v, %v", n, d, err)
			}
		})
		if allocs != 1 {
			t.Fatalf("%d running: vetoed fair-share contact made %.2f allocations, want 1", n, allocs)
		}
	}
}
