package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/redistrib"
	"repro/internal/resize"
	"repro/internal/scheduler"
	sdk "repro/pkg/reshape"
)

// The resize data plane: the six apps.Build applications, each run through
// reshape.Run on goroutine ranks while a scripted scheduler walks it up and
// back down a tour of processor grids, one resize after every iteration.
// Expand and shrink legs are equal in number so neither hides the other.

var (
	tour2D = []grid.Topology{{Rows: 1, Cols: 2}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 3}, {Rows: 3, Cols: 3},
		{Rows: 2, Cols: 3}, {Rows: 2, Cols: 2}, {Rows: 1, Cols: 2}}
	tour1D = []grid.Topology{grid.Row1D(2), grid.Row1D(4), grid.Row1D(6), grid.Row1D(8),
		grid.Row1D(6), grid.Row1D(4), grid.Row1D(2)}
)

// appCase is one application of the workload with its tour.
type appCase struct {
	cfg  apps.Config
	tour []grid.Topology
}

// appCases sizes the applications so that a resize moves a megabyte or
// more while an iteration stays cheap: the data plane, not the kernels,
// should carry the workload. The master-worker app registers no arrays; its
// resizes cost spawn, merge and retire only.
func appCases(env *runEnv) []appCase {
	n := func(full, toy int) int {
		if env.scale < 1 {
			return toy
		}
		return full
	}
	iters := len(tour2D)
	cases := []appCase{
		{apps.Config{App: "lu", N: n(256, 48), NB: 16, Iterations: iters}, tour2D},
		{apps.Config{App: "mm", N: n(192, 48), NB: 16, Iterations: iters}, tour2D},
		{apps.Config{App: "jacobi", N: n(1280, 64), NB: 8, Iterations: iters, Sweeps: 1}, tour1D},
		{apps.Config{App: "fft", N: n(256, 64), NB: 8, Iterations: iters}, tour1D},
		{apps.Config{App: "mw", Iterations: iters, MWUnits: 400, MWChunk: 20, MWUnitWork: 1000}, tour1D},
		{apps.Config{App: "cg", N: n(1024, 48), NB: 16, Iterations: iters, Sweeps: 1}, tour2D},
	}
	// The applications' inputs are fixed functions of the indices; the seed
	// chooses the order they run in.
	rand.New(rand.NewSource(env.seed)).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases
}

// script turns a tour into the decisions a ScriptedClient replays.
func script(tour []grid.Topology) []scheduler.Decision {
	ds := make([]scheduler.Decision, 0, len(tour)-1)
	for i := 1; i < len(tour); i++ {
		act := scheduler.ActionExpand
		if tour[i].Count() < tour[i-1].Count() {
			act = scheduler.ActionShrink
		}
		ds = append(ds, scheduler.Decision{Action: act, Target: tour[i], Reason: "benchmark tour"})
	}
	return ds
}

// arrayDump gathers every registered array of a run into global row-major
// form, whatever grid the run ended on, so two runs compare bit for bit.
type arrayDump struct {
	mu     sync.Mutex
	arrays map[string][]float64
	shapes map[string]arrayShape
}

func newArrayDump() *arrayDump {
	return &arrayDump{arrays: make(map[string][]float64), shapes: make(map[string]arrayShape)}
}

func (d *arrayDump) global(a *resize.Array) []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	g := d.arrays[a.Name]
	if g == nil {
		g = make([]float64, a.M*a.N)
		d.arrays[a.Name] = g
		d.shapes[a.Name] = arrayShape{a.M, a.N, a.MB, a.NB}
	}
	return g
}

// collect copies the calling rank's pieces into the global images. Ranks
// own disjoint elements, so the writes need no lock.
func (d *arrayDump) collect(rc *sdk.Context) {
	topo := rc.Topo()
	rank := rc.Rank()
	if rank >= topo.Count() {
		return
	}
	for _, a := range rc.Session().Arrays() {
		l := a.LayoutFor(topo)
		g := d.global(a)
		prow, pcol := l.Coords(rank)
		rows, cols := l.LocalRows(prow), l.LocalCols(pcol)
		for li := 0; li < rows; li++ {
			for lj := 0; lj < cols; lj++ {
				i, j := l.LocalToGlobal(prow, pcol, li, lj)
				g[i*a.N+j] = a.Data[li*cols+lj]
			}
		}
	}
}

// probeApp runs the wrapped application unchanged and dumps its arrays once
// its last iteration has run.
type probeApp struct {
	inner sdk.App
	last  int
	dump  *arrayDump
}

func (p probeApp) Init(rc *sdk.Context) error { return p.inner.Init(rc) }

func (p probeApp) Iterate(rc *sdk.Context) error {
	if err := p.inner.Iterate(rc); err != nil {
		return err
	}
	if rc.Iter() == p.last-1 {
		p.dump.collect(rc)
	}
	return nil
}

// appRun is what one reshape.Run of one application produced.
type appRun struct {
	initS, runS float64
	iterS       float64 // sum of grid-averaged iteration times
	resizes     []sdk.Event
	dump        *arrayDump
	report      *sdk.Report
	client      *resize.ScriptedClient
}

func runApp(c appCase, decisions []scheduler.Decision, tr *tracer) (*appRun, error) {
	app, err := apps.Build(c.cfg)
	if err != nil {
		return nil, err
	}
	out := &appRun{dump: newArrayDump(), client: &resize.ScriptedClient{Script: decisions}}
	var mu sync.Mutex
	var initAt time.Time
	start := time.Now()
	logger := sdk.Logger(func(ev sdk.Event) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case sdk.EventInit:
			initAt = now
		case sdk.EventIterate:
			out.iterS += ev.Seconds
		case sdk.EventResize:
			out.resizes = append(out.resizes, ev)
		default:
			return
		}
		if tr != nil && ev.Kind != sdk.EventInit {
			name := "apps.iterate"
			if ev.Kind == sdk.EventResize {
				name = "resize.resize"
			}
			d := time.Duration(ev.Seconds * float64(time.Second))
			tr.add(name, "reshape.run", c.cfg.App+"/"+fmt.Sprint(ev.Iter), now.Add(-d), now)
		}
	})
	out.report, err = sdk.Run(context.Background(), probeApp{inner: app, last: c.cfg.Iterations, dump: out.dump},
		sdk.WithScheduler(out.client), sdk.WithTopology(c.tour[0]),
		sdk.WithMaxIterations(c.cfg.Iterations), sdk.WithResizeEvery(1), sdk.WithLogger(logger))
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.cfg.App, err)
	}
	if tr != nil {
		tr.add("reshape.run", "", c.cfg.App, start, end)
	}
	out.initS = initAt.Sub(start).Seconds()
	out.runS = end.Sub(initAt).Seconds()
	return out, nil
}

// appReference is a no-resize run of each application: same inputs, same
// iteration count, the tour's first grid throughout.
var appReference struct {
	once sync.Once
	runs map[string]*appRun
	err  error
}

func referenceRuns(cases []appCase) (map[string]*appRun, error) {
	appReference.once.Do(func() {
		appReference.runs = make(map[string]*appRun)
		for _, c := range cases {
			run, err := runApp(c, nil, nil)
			if err != nil {
				appReference.err = fmt.Errorf("reference run: %w", err)
				return
			}
			appReference.runs[c.cfg.App] = run
		}
	})
	return appReference.runs, appReference.err
}

// Arrays the kernels only read must survive the tour bit for bit. The ones
// below are recomputed every iteration by reductions whose order follows
// the grid, so they are held to a tolerance instead, like the residuals.
var appComputed = map[string]bool{"mm/C": true, "fft/img": true}

const (
	appArrayTol    = 1e-9 // relative, for recomputed arrays
	appResidualTol = 1e-6 // absolute: apps_test's own bound on solver residuals
)

// compareRuns checks a toured run against the reference run.
func compareRuns(r *round, app string, got, want *appRun) {
	for name, ref := range want.dump.arrays {
		g := got.dump.arrays[name]
		if len(g) != len(ref) {
			r.check(false, "%s: array %s has %d elements, reference %d", app, name, len(g), len(ref))
			continue
		}
		diff, worst := 0, 0.0
		for i := range ref {
			if math.Float64bits(g[i]) != math.Float64bits(ref[i]) {
				diff++
				if d := math.Abs(g[i]-ref[i]) / math.Max(1, math.Abs(ref[i])); d > worst || math.IsNaN(d) {
					worst = d
				}
			}
		}
		if appComputed[app+"/"+name] {
			r.check(worst <= appArrayTol, "%s: array %s off the reference by %.3g (relative)", app, name, worst)
		} else {
			r.check(diff == 0, "%s: array %s differs from the no-resize run in %d elements", app, name, diff)
		}
	}
	for name, ref := range want.report.Replicated {
		g := got.report.Replicated[name]
		if len(g) != len(ref) {
			r.check(false, "%s: replicated %s has %d elements, reference %d", app, name, len(g), len(ref))
			continue
		}
		worst := 0.0
		for i := range ref {
			if d := math.Abs(g[i] - ref[i]); d > worst || math.IsNaN(d) {
				worst = d
			}
		}
		r.check(worst <= appResidualTol, "%s: replicated %s off the reference by %.3g", app, name, worst)
	}
}

// arrayBytes is the volume one resize of the application redistributes.
func arrayBytes(run *appRun) float64 {
	b := 0.0
	for _, shape := range run.dump.shapes {
		b += float64(shape.M*shape.N) * 8
	}
	return b
}

func appRound(env *runEnv, tr *tracer) (*round, error) {
	r := newRound()
	cases := appCases(env)
	refs, err := referenceRuns(cases)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var iterS, resizeS, movedB float64
	for _, c := range cases {
		decisions := script(c.tour)
		run, err := runApp(c, decisions, tr)
		if err != nil {
			return nil, err
		}
		r.setupS += run.initS
		r.measureS += run.runS
		iterS += run.iterS
		r.attempted += len(decisions)
		r.check(run.report.Iterations == c.cfg.Iterations, "%s: %d of %d iterations", c.cfg.App, run.report.Iterations, c.cfg.Iterations)
		r.check(run.report.FinalTopo == c.tour[len(c.tour)-1], "%s: ended on %v", c.cfg.App, run.report.FinalTopo)
		r.check(run.client.Ended, "%s: job-end never reached the scheduler", c.cfg.App)
		if len(run.resizes) != len(decisions) || len(run.client.Completed) != len(decisions) {
			r.failed += len(decisions) - len(run.resizes)
			r.check(false, "%s: %d of %d resizes happened, %d confirmed", c.cfg.App, len(run.resizes), len(decisions), len(run.client.Completed))
		}
		for _, ev := range run.resizes {
			ms := 1000 * ev.Seconds
			r.samples["resize_ms"] = append(r.samples["resize_ms"], ms)
			if ev.Topo.Count() > ev.From.Count() {
				r.samples["expand_ms"] = append(r.samples["expand_ms"], ms)
			} else {
				r.samples["shrink_ms"] = append(r.samples["shrink_ms"], ms)
			}
			resizeS += ev.Seconds
			movedB += arrayBytes(run)
		}
		r.layer["resize.contacts"] += float64(run.client.Contacts)
		compareRuns(r, c.cfg.App, run, refs[c.cfg.App])
	}
	runtime.ReadMemStats(&m1)
	r.jobs = len(cases)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.vals["time_to_solution_s"] = r.measureS
	r.vals["redist_mb_per_s"] = movedB / 1e6 / resizeS
	r.vals["compute_share_pct"] = 100 * iterS / r.measureS
	r.vals["resize_share_pct"] = 100 * resizeS / r.measureS
	r.vals["resize_mean_ms"] = 1000 * resizeS / float64(len(r.samples["resize_ms"]))
	r.layer["resize.resizes"] = float64(len(r.samples["resize_ms"]))
	r.layer["resize.seconds"] = resizeS
	r.layer["redistrib.moved_mb"] = movedB / 1e6
	return r, nil
}

// directCost is one tour of every application done by direct calls: what
// redistrib and mpi alone take for the resizes the SDK reported.
type directCost struct {
	executeS, spawnMergeS float64
	stats                 redistrib.Stats
	steps                 int
}

// appDirect replays every leg of every application's tour as a direct
// MultiPlan execution on the same layouts, and every expand leg's spawn and
// merge, so the SDK-reported resize time can be split into its layers.
func appDirect(env *runEnv) (directCost, error) {
	var total directCost
	cases := appCases(env)
	refs, err := referenceRuns(cases)
	if err != nil {
		return total, err
	}
	for _, c := range cases {
		var shapes []arrayShape
		names := make([]string, 0, len(refs[c.cfg.App].dump.shapes))
		for name := range refs[c.cfg.App].dump.shapes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			shapes = append(shapes, refs[c.cfg.App].dump.shapes[name])
		}
		for i := 1; i < len(c.tour); i++ {
			from, to := c.tour[i-1], c.tour[i]
			if to.Count() > from.Count() {
				d, err := directSpawnMerge(from.Count(), to.Count(), 3)
				if err != nil {
					return total, err
				}
				total.spawnMergeS += d.Seconds()
			}
			if len(shapes) == 0 {
				continue
			}
			leg, err := directRedistribute(shapes, from, to, 3)
			if err != nil {
				return total, err
			}
			total.executeS += leg.execute.Seconds()
			total.stats.Add(leg.stats)
			total.steps += leg.steps
		}
	}
	return total, nil
}
