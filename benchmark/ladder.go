package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/blockcyclic"
	"repro/internal/durability"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/redistrib"
	"repro/internal/reshape"
	"repro/internal/resize"
	"repro/internal/rpc"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
	"repro/internal/workload"
	sdk "repro/pkg/reshape"
)

// The ladder is the same on every workload: direct, timed calls into each
// layer's public functions on small seeded inputs, with nothing else
// running. It gives every layer an absolute cost of its own, so a change to
// one layer shows in that layer's row whichever workload was traced, and the
// rows can be set against the end-to-end figures they add up to. The shares
// and counts in layers.go say which layers a workload actually exercised.

const (
	ladderJobs    = 300  // jobs behind the recorded op stream
	ladderSyncOps = 1000 // ops appended with an fsync each
)

// recordOps runs a small generated mix through the simulator with a
// recording journal hook: the op stream every control-plane rung replays.
func recordOps(env *runEnv) ([]scheduler.Op, []simcluster.JobInput, error) {
	mix, err := workload.Generate(workload.GenConfig{
		Seed: env.seed, Jobs: ladderJobs, MeanInterarrival: 1, MaxProcs: ctlMaxProcs, Iterations: ctlIterations,
	})
	if err != nil {
		return nil, nil, err
	}
	var ops []scheduler.Op
	core := scheduler.NewCoreSharded(ctlProcs, scheduler.DefaultShards(ctlProcs), true)
	core.SetJournal(func(op scheduler.Op) error {
		ops = append(ops, op)
		return nil
	})
	if _, err := simcluster.New(ctlProcs, simcluster.Dynamic, env.params, mix).WithCore(core).Run(); err != nil {
		return nil, nil, err
	}
	return ops, mix, nil
}

// ladderDurability appends the op stream to fresh stores, with and without
// an fsync per op, snapshots the state it leads to and recovers it.
func ladderDurability(env *runEnv, ops []scheduler.Op, m map[string]float64) error {
	dir, err := os.MkdirTemp(env.outDir, "ladder-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	syncDir := dir + "/sync"
	st, _, err := durability.Open(syncDir, durability.Options{Sync: durability.SyncAlways})
	if err != nil {
		return err
	}
	n := min(ladderSyncOps, len(ops))
	syncUS := make([]float64, 0, n)
	for _, op := range ops[:n] {
		t0 := time.Now()
		if err := st.Append(op); err != nil {
			_ = st.Close()
			return err
		}
		syncUS = append(syncUS, us(time.Since(t0)))
	}
	if err := st.Close(); err != nil {
		return err
	}
	m["durability.append_sync_p50_us"] = percentile(syncUS, 0.50)
	m["durability.append_sync_p99_us"] = percentile(syncUS, 0.99)

	// The same ops with no fsync: what the record format and the write cost.
	core := scheduler.NewCoreSharded(ctlProcs, scheduler.DefaultShards(ctlProcs), true)
	plainDir := dir + "/plain"
	st, _, err = durability.Open(plainDir, durability.Options{
		Sync:    durability.SyncNone,
		Capture: func() (*scheduler.CoreState, uint64) { return core.PersistState(), 0 },
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, op := range ops {
		if err := st.Append(op); err != nil {
			_ = st.Close()
			return err
		}
	}
	m["durability.append_nosync_us"] = us(time.Since(t0)) / float64(len(ops))
	if err := st.Sync(); err != nil {
		_ = st.Close()
		return err
	}
	m["durability.bytes_per_op"] = float64(dirBytes(plainDir)) / float64(len(ops))
	m["durability.fsync_share_pct"] = 100 * (1 - m["durability.append_nosync_us"]/mean(syncUS))

	// Recovery of the whole log, then of a snapshot of the same state.
	if err := st.Close(); err != nil {
		return err
	}
	var openMS, restoreMS []float64
	replayed := 0
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		st, rec, err := durability.Open(plainDir, durability.Options{Sync: durability.SyncNone})
		if err != nil {
			return err
		}
		t1 := time.Now()
		_, info, err := restoreCore(rec)
		t2 := time.Now()
		_ = st.Close()
		if err != nil {
			return err
		}
		openMS = append(openMS, ms(t1.Sub(t0)))
		restoreMS = append(restoreMS, ms(t2.Sub(t1)))
		replayed = info.Replayed
	}
	m["durability.recover_open_ms"] = median(openMS)
	m["durability.recover_restore_ms"] = median(restoreMS)
	m["durability.replayed"] = float64(replayed)

	for _, op := range ops {
		if err := core.Apply(op); err != nil {
			return fmt.Errorf("ladder: replay: %w", err)
		}
	}
	st, _, err = durability.Open(plainDir, durability.Options{
		Sync:    durability.SyncAlways,
		Capture: func() (*scheduler.CoreState, uint64) { return core.PersistState(), 0 },
	})
	if err != nil {
		return err
	}
	var snapMS []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := st.Snapshot(float64(i)); err != nil {
			_ = st.Close()
			return err
		}
		snapMS = append(snapMS, ms(time.Since(t0)))
	}
	m["durability.snapshot_ms"] = median(snapMS)
	return st.Close()
}

// ladderCore replays the op stream through fresh cores.
func ladderCore(ops []scheduler.Op, m map[string]float64) error {
	var perOp []float64
	for i := 0; i < 5; i++ {
		core := scheduler.NewCoreSharded(ctlProcs, scheduler.DefaultShards(ctlProcs), true)
		t0 := time.Now()
		for _, op := range ops {
			if err := core.Apply(op); err != nil {
				return fmt.Errorf("ladder: core apply: %w", err)
			}
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(len(ops)))
	}
	m["scheduler.core_apply_ns"] = median(perOp)
	return nil
}

// driveSerially takes the mix through sched with one driver, so no call
// waits for another: the per-call cost of the path with no queueing in it.
func driveSerially(env *runEnv, sched resize.Scheduler, st *starts, mix []simcluster.JobInput) (callUS []float64, err error) {
	ops := &ctlOps{}
	d := &ctlDriver{}
	for i := range mix {
		driveJob(sched, env.params, mix[i], i, st, ops, d, nil)
	}
	if f := ops.failed.Load(); f > 0 {
		return nil, fmt.Errorf("ladder: %d of %d calls failed", f, ops.attempted.Load())
	}
	for _, x := range append(d.submitMs, d.contactMs...) {
		callUS = append(callUS, 1000*x)
	}
	return callUS, nil
}

// ladderWire drives the same jobs through an in-process scheduler.Server and
// over rpc/v2: the difference is what the wire adds to an uncontended call.
func ladderWire(env *runEnv, mix []simcluster.JobInput, m map[string]float64) error {
	st := &starts{ch: make(map[string]chan struct{})}
	inproc := scheduler.NewServerCore(scheduler.NewCoreSharded(ctlProcs, scheduler.DefaultShards(ctlProcs), true), st.started)
	inprocUS, err := driveSerially(env, inproc, st, mix)
	if err != nil {
		return err
	}
	m["scheduler.server_inproc_us"] = mean(inprocUS)

	overWire := func() ([]float64, error) {
		srv := scheduler.NewServerCore(scheduler.NewCoreSharded(ctlProcs, scheduler.DefaultShards(ctlProcs), true), st.started)
		rs, err := rpc.Serve("127.0.0.1:0", srv)
		if err != nil {
			return nil, err
		}
		defer rs.Close()
		cl, err := reshape.Dial(rs.Addr())
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		return driveSerially(env, cl, st, mix)
	}
	var plain []float64
	for i := 0; i < 3; i++ {
		a, err := overWire()
		if err != nil {
			return err
		}
		plain = append(plain, mean(a))
		if i == 0 {
			m["reshape.call_p99_us"] = percentile(a, 0.99)
		}
	}
	m["reshape.call_us"] = median(plain)
	m["reshape.wire_overhead_us"] = median(plain) - mean(inprocUS)
	return nil
}

// ladderCodec pushes the frames the op stream turns into through the v2
// frame writer and reader on a buffer.
func ladderCodec(ops []scheduler.Op, m map[string]float64) error {
	frames := make([]rpc.Frame, 0, len(ops))
	for i, op := range ops {
		f := rpc.Frame{ID: uint64(i + 1), JobID: op.JobID, Topo: op.Topo, IterTime: op.IterTime, RedistTime: op.RedistTime}
		switch op.Kind {
		case scheduler.OpSubmit:
			f.Op, f.Spec = rpc.OpSubmit, op.Spec
		case scheduler.OpContact:
			f.Op = rpc.OpContact
		case scheduler.OpResizeComplete:
			f.Op = rpc.OpResizeComplete
		default:
			f.Op = rpc.OpJobEnd
		}
		frames = append(frames, f)
	}
	var encNS, decNS []float64
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		fw := rpc.NewFrameWriter(&buf)
		t0 := time.Now()
		for i := range frames {
			if err := fw.Write(frames[i]); err != nil {
				return err
			}
		}
		encNS = append(encNS, float64(time.Since(t0).Nanoseconds())/float64(len(frames)))
		m["rpc.frame_bytes"] = float64(buf.Len()) / float64(len(frames))
		fr := rpc.NewFrameReader(&buf)
		t0 = time.Now()
		for range frames {
			var f rpc.Frame
			if err := fr.Read(&f); err != nil {
				return err
			}
		}
		decNS = append(decNS, float64(time.Since(t0).Nanoseconds())/float64(len(frames)))
	}
	m["rpc.codec_encode_ns"] = median(encNS)
	m["rpc.codec_decode_ns"] = median(decNS)
	return nil
}

// ladderSim times the generator, the engine under the published policy, and
// each arbiter stack with every call timed, on small mixes.
func ladderSim(env *runEnv, m map[string]float64) error {
	small := *env
	small.scale = 0.2

	t0 := time.Now()
	if _, err := simMix(&small, simFCFS); err != nil {
		return err
	}
	m["workload.generate_ms"] = ms(time.Since(t0))
	r, err := simRound(&small, simFCFS, nil)
	if err != nil {
		return err
	}
	m["simcluster.ns_per_contact"] = r.vals["ns_per_contact"]

	small.scale = 0.25
	for _, kind := range []simKind{simFairshare, simRebalance} {
		tr := newTracer()
		if _, err := simRound(&small, kind, tr); err != nil {
			return err
		}
		if kind == simFairshare {
			m["arbiter.decide_ns"] = tr.get("arbiter.decide").meanNS()
			m["arbiter.decide_p99_ns"] = tr.get("arbiter.decide").percentileNS(0.99)
			m["fairshare.pick_start_ns"] = tr.get("fairshare.pick_start").meanNS()
		} else {
			m["rebalance.plan_ms"] = tr.get("rebalance.plan").meanNS() / 1e6
		}
	}
	return nil
}

// arrayShape is a registered array's global shape and blocking.
type arrayShape struct{ M, N, MB, NB int }

// legCost is one direct redistribution between two grids.
type legCost struct {
	planBuild time.Duration
	execute   time.Duration // rank 0, median over the repetitions
	stats     redistrib.Stats
	steps     int
	floats    int
}

// directRedistribute builds the fused plan for arrays between two grids and
// executes it on goroutine ranks holding pieces of the right size: the
// redistrib layer alone, as the resize session calls it.
func directRedistribute(arrays []arrayShape, from, to grid.Topology, reps int) (legCost, error) {
	var cost legCost
	srcs := make([]blockcyclic.Layout, len(arrays))
	dsts := make([]blockcyclic.Layout, len(arrays))
	for i, a := range arrays {
		srcs[i] = blockcyclic.Layout{M: a.M, N: a.N, MB: a.MB, NB: a.NB, Grid: from}
		dsts[i] = blockcyclic.Layout{M: a.M, N: a.N, MB: a.MB, NB: a.NB, Grid: to}
		cost.floats += a.M * a.N
	}
	t0 := time.Now()
	mp, err := redistrib.NewMultiPlan(srcs, dsts)
	if err != nil {
		return cost, err
	}
	cost.planBuild = time.Since(t0)
	cost.steps = mp.Steps()

	var mu sync.Mutex
	times := make([]float64, 0, reps)
	world := max(from.Count(), to.Count())
	err = mpi.Run(world, func(c *mpi.Comm) error {
		mine := make([][]float64, len(arrays))
		if c.Rank() < from.Count() {
			for i := range arrays {
				mine[i] = make([]float64, srcs[i].LocalSize(c.Rank()))
			}
		}
		for rep := 0; rep < reps; rep++ {
			// Rank 0's own time, as the resize session reports it.
			c.Barrier()
			t0 := time.Now()
			_, st := mp.ExecuteStats(c, mine)
			d := time.Since(t0)
			c.Barrier()
			mu.Lock()
			if c.Rank() == 0 {
				times = append(times, float64(d))
			}
			if rep == 0 {
				cost.stats.Add(st)
			}
			mu.Unlock()
		}
		return nil
	})
	cost.execute = time.Duration(median(times))
	return cost, err
}

// directSpawnMerge grows a communicator from p to q ranks and merges it, as
// an expansion does before it moves any data.
func directSpawnMerge(p, q, reps int) (time.Duration, error) {
	var times []float64
	for rep := 0; rep < reps; rep++ {
		var d time.Duration
		err := mpi.Run(p, func(c *mpi.Comm) error {
			c.Barrier()
			t0 := time.Now()
			ic := c.Spawn(q-p, func(child *mpi.Intercomm) error {
				child.Merge().Barrier()
				return nil
			})
			ic.Merge().Barrier()
			if c.Rank() == 0 {
				d = time.Since(t0)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		times = append(times, float64(d))
	}
	return time.Duration(median(times)), nil
}

// ladderArrays is the array set of the data-plane rungs: two 4 MB arrays.
var ladderArrays = []arrayShape{{724, 724, 16, 16}, {724, 724, 16, 16}}

var (
	ladderSmall = grid.Topology{Rows: 2, Cols: 2}
	ladderLarge = grid.Topology{Rows: 3, Cols: 3}
)

// ladderMPI times the message-passing primitives at the tours' rank counts.
func ladderMPI(m map[string]float64) error {
	const ranks = 8
	const floats = 1 << 17 // 1 MB messages
	var p2p, allreduce, barrier time.Duration
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		buf := make([]float64, floats)
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < 20; i++ {
			switch c.Rank() {
			case 0:
				c.SendFloats(1, 7, buf)
				c.RecvFloats(1, 8)
			case 1:
				c.RecvFloats(0, 7)
				c.SendFloats(0, 8, buf)
			}
		}
		if c.Rank() == 0 {
			p2p = time.Since(t0)
		}
		c.Barrier()
		t0 = time.Now()
		x := []float64{float64(c.Rank())}
		for i := 0; i < 200; i++ {
			c.Allreduce(x, mpi.SumOp)
		}
		if c.Rank() == 0 {
			allreduce = time.Since(t0)
		}
		c.Barrier()
		t0 = time.Now()
		for i := 0; i < 200; i++ {
			c.Barrier()
		}
		if c.Rank() == 0 {
			barrier = time.Since(t0)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["mpi.p2p_mb_per_s"] = 40 * floats * 8 / 1e6 / p2p.Seconds()
	m["mpi.allreduce_us"] = us(allreduce) / 200
	m["mpi.barrier_us"] = us(barrier) / 200
	sm, err := directSpawnMerge(ladderSmall.Count(), ladderLarge.Count(), 9)
	if err != nil {
		return err
	}
	m["mpi.spawn_merge_us"] = us(sm)
	return nil
}

// ladderRedistrib executes the fused plan directly, both directions.
func ladderRedistrib(m map[string]float64) error {
	exp, err := directRedistribute(ladderArrays, ladderSmall, ladderLarge, 7)
	if err != nil {
		return err
	}
	shr, err := directRedistribute(ladderArrays, ladderLarge, ladderSmall, 7)
	if err != nil {
		return err
	}
	m["redistrib.plan_build_us"] = us(exp.planBuild)
	m["redistrib.execute_expand_ms"] = ms(exp.execute)
	m["redistrib.execute_shrink_ms"] = ms(shr.execute)
	return nil
}

// idleApp registers the ladder's arrays and computes nothing, so a run of it
// costs the SDK loop and the resizes alone.
type idleApp struct{ arrays []arrayShape }

func (a idleApp) Init(rc *sdk.Context) error {
	for i, s := range a.arrays {
		arr := rc.RegisterArray(fmt.Sprintf("A%d", i), s.M, s.N, s.MB, s.NB)
		rc.FillArray(arr, func(i, j int) float64 { return float64(i ^ j) })
	}
	return nil
}

func (idleApp) Iterate(*sdk.Context) error { return nil }

// ladderSDK runs idle applications through reshape.Run: one that is never
// resized, for the loop's own cost per iteration, and one that oscillates
// between the ladder's two grids, for a resize as the session performs it.
func ladderSDK(m map[string]float64) error {
	const iters = 2000
	t0 := time.Now()
	if _, err := sdk.Run(context.Background(), idleApp{}, sdk.WithTopology(grid.Topology{Rows: 1, Cols: 2}),
		sdk.WithMaxIterations(iters)); err != nil {
		return err
	}
	m["sdk.iter_overhead_ns"] = float64(time.Since(t0).Nanoseconds()) / iters

	tour := []grid.Topology{ladderSmall}
	for i := 0; i < 5; i++ {
		tour = append(tour, ladderLarge, ladderSmall)
	}
	var mu sync.Mutex
	var expandMS, shrinkMS []float64
	logger := sdk.Logger(func(ev sdk.Event) {
		if ev.Kind != sdk.EventResize {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if ev.Topo.Count() > ev.From.Count() {
			expandMS = append(expandMS, 1000*ev.Seconds)
		} else {
			shrinkMS = append(shrinkMS, 1000*ev.Seconds)
		}
	})
	if _, err := sdk.Run(context.Background(), idleApp{arrays: ladderArrays},
		sdk.WithScheduler(&resize.ScriptedClient{Script: script(tour)}), sdk.WithTopology(tour[0]),
		sdk.WithMaxIterations(len(tour)), sdk.WithLogger(logger)); err != nil {
		return err
	}
	m["resize.expand_ms"] = median(expandMS)
	m["resize.shrink_ms"] = median(shrinkMS)
	m["resize.session_overhead_ms"] = median(expandMS) - m["redistrib.execute_expand_ms"] - m["mpi.spawn_merge_us"]/1000
	return nil
}

// ladder runs every rung and returns the metrics by name.
func ladder(env *runEnv) (map[string]float64, error) {
	m := make(map[string]float64)
	ops, mix, err := recordOps(env)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	steps := []func() error{
		func() error { return ladderDurability(env, ops, m) },
		func() error { return ladderCore(ops, m) },
		func() error { return ladderWire(env, mix, m) },
		func() error { return ladderCodec(ops, m) },
		func() error { return ladderSim(env, m) },
		func() error { return ladderMPI(m) },
		func() error { return ladderRedistrib(m) },
		func() error { return ladderSDK(m) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return m, nil
}
