package reshape_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/grid"
	"repro/internal/resize"
	"repro/internal/scheduler"
	"repro/pkg/reshape"
)

func topo(r, c int) grid.Topology { return grid.Topology{Rows: r, Cols: c} }

type noopApp struct{}

func (noopApp) Init(rc *reshape.Context) error    { return nil }
func (noopApp) Iterate(rc *reshape.Context) error { return nil }

// countingApp counts lifecycle calls across all ranks.
type countingApp struct {
	inits    atomic.Int64
	iterates atomic.Int64
	resizes  atomic.Int64
	joins    atomic.Int64
}

func (a *countingApp) Init(rc *reshape.Context) error {
	a.inits.Add(1)
	arr := rc.RegisterArray("A", 8, 8, 2, 2)
	rc.FillArray(arr, func(i, j int) float64 { return float64(i*8 + j) })
	return nil
}

func (a *countingApp) Iterate(rc *reshape.Context) error {
	a.iterates.Add(1)
	return nil
}

func (a *countingApp) OnResize(rc *reshape.Context, ev reshape.ResizeEvent) error {
	if ev.Kind == reshape.Joined {
		a.joins.Add(1)
	} else {
		a.resizes.Add(1)
	}
	return nil
}

func TestRunIterationAccounting(t *testing.T) {
	// The loopWorker-equivalent accounting: n iterations on p ranks means
	// exactly n*p Iterate calls, n log records with increasing iteration
	// numbers, and one scheduler contact per iteration.
	app := &countingApp{}
	client := &resize.ScriptedClient{}
	const iters = 5
	rep, err := reshape.Run(context.Background(), app,
		reshape.WithScheduler(client),
		reshape.WithTopology(topo(1, 2)),
		reshape.WithMaxIterations(iters))
	if err != nil {
		t.Fatal(err)
	}
	if got := app.inits.Load(); got != 2 {
		t.Errorf("Init ran %d times, want 2 (once per initial rank)", got)
	}
	if got := app.iterates.Load(); got != iters*2 {
		t.Errorf("Iterate ran %d times, want %d", got, iters*2)
	}
	if rep.Iterations != iters {
		t.Errorf("report iterations %d, want %d", rep.Iterations, iters)
	}
	if len(rep.Records) != iters {
		t.Fatalf("%d records, want %d", len(rep.Records), iters)
	}
	for i, rec := range rep.Records {
		if rec.Iter != i {
			t.Errorf("record %d has iteration %d", i, rec.Iter)
		}
		if rec.Topo != topo(1, 2) {
			t.Errorf("record %d on %v", i, rec.Topo)
		}
	}
	if client.Contacts != iters {
		t.Errorf("%d scheduler contacts, want %d", client.Contacts, iters)
	}
	if !client.Ended {
		t.Error("completion never reported")
	}
}

func TestRunResizeEverySpacing(t *testing.T) {
	// With WithResizeEvery(2) only every 2nd iteration contacts the
	// scheduler; intermediate iterations still count and log.
	app := &countingApp{}
	client := &resize.ScriptedClient{}
	rep, err := reshape.Run(context.Background(), app,
		reshape.WithScheduler(client),
		reshape.WithTopology(topo(1, 2)),
		reshape.WithMaxIterations(6),
		reshape.WithResizeEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	if client.Contacts != 3 {
		t.Errorf("%d contacts with resizeEvery=2 over 6 iterations, want 3", client.Contacts)
	}
	if rep.Iterations != 6 || len(rep.Records) != 6 {
		t.Errorf("iterations %d, records %d, want 6/6", rep.Iterations, len(rep.Records))
	}
}

func TestRunFlushesTailIterations(t *testing.T) {
	// When MaxIterations is not a multiple of ResizeEvery, the iterations
	// after the last resize point still run, count and log, and the job
	// end still reaches the scheduler.
	app := &countingApp{}
	client := &resize.ScriptedClient{}
	rep, err := reshape.Run(context.Background(), app,
		reshape.WithScheduler(client),
		reshape.WithTopology(topo(1, 2)),
		reshape.WithMaxIterations(5),
		reshape.WithResizeEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	if client.Contacts != 2 {
		t.Errorf("%d contacts, want 2 (iterations 2 and 4)", client.Contacts)
	}
	if got := app.iterates.Load(); got != 5*2 {
		t.Errorf("Iterate ran %d times, want 10 (5 iterations x 2 ranks)", got)
	}
	if rep.Iterations != 5 || len(rep.Records) != 5 || !client.Ended {
		t.Errorf("iterations %d, records %d, ended %v, want 5/5/true", rep.Iterations, len(rep.Records), client.Ended)
	}
}

func TestRunHooksThroughResize(t *testing.T) {
	// An expansion must notify OnResize on every pre-existing rank and give
	// spawned ranks their Joined notification; a shrink notifies survivors.
	app := &countingApp{}
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
		{Action: scheduler.ActionNone},
		{Action: scheduler.ActionShrink, Target: topo(1, 2)},
	}}
	rep, err := reshape.Run(context.Background(), app,
		reshape.WithScheduler(client),
		reshape.WithTopology(topo(1, 2)),
		reshape.WithMaxIterations(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := app.joins.Load(); got != 2 {
		t.Errorf("%d Joined notifications, want 2 (spawned ranks)", got)
	}
	// Expansion: 2 old ranks notified. Shrink to 1x2: 2 survivors notified.
	if got := app.resizes.Load(); got != 4 {
		t.Errorf("%d OnResize notifications, want 4 (2 expand + 2 shrink)", got)
	}
	if rep.Resizes != 2 {
		t.Errorf("report counted %d resizes, want 2", rep.Resizes)
	}
	if rep.FinalTopo != topo(1, 2) {
		t.Errorf("final topo %v", rep.FinalTopo)
	}
}

func TestRunLifecycleEvents(t *testing.T) {
	app := &countingApp{}
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
	}}
	var mu sync.Mutex
	var events []reshape.Event
	_, err := reshape.Run(context.Background(), app,
		reshape.WithScheduler(client),
		reshape.WithTopology(topo(1, 2)),
		reshape.WithMaxIterations(3),
		reshape.WithLogger(func(ev reshape.Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[reshape.EventKind]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	if counts[reshape.EventInit] != 1 {
		t.Errorf("init events: %d, want 1", counts[reshape.EventInit])
	}
	if counts[reshape.EventIterate] != 3 {
		t.Errorf("iterate events: %d, want 3", counts[reshape.EventIterate])
	}
	if counts[reshape.EventResize] != 1 {
		t.Errorf("resize events: %d, want 1", counts[reshape.EventResize])
	}
	if counts[reshape.EventDone] != 1 {
		t.Errorf("done events: %d, want 1", counts[reshape.EventDone])
	}
	// The resize event carries the grid pair.
	for _, ev := range events {
		if ev.Kind == reshape.EventResize {
			if ev.From != topo(1, 2) || ev.Topo != topo(2, 2) {
				t.Errorf("resize event %v -> %v, want 1x2 -> 2x2", ev.From, ev.Topo)
			}
		}
	}
	if reshape.EventResize.String() != "resize" || reshape.Joined.String() != "joined" {
		t.Error("event kind names wrong")
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	app := &countingApp{}
	var once sync.Once
	_, err := reshape.Run(ctx, app,
		reshape.WithTopology(topo(1, 2)),
		reshape.WithMaxIterations(1000),
		reshape.WithLogger(func(ev reshape.Event) {
			if ev.Kind == reshape.EventIterate && ev.Iter >= 2 {
				once.Do(cancel)
			}
		}))
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if got := app.iterates.Load(); got >= 2000 {
		t.Errorf("run did not stop early: %d iterates", got)
	}
}

func TestRunValidatesOptions(t *testing.T) {
	app := &countingApp{}
	if _, err := reshape.Run(context.Background(), nil); err == nil {
		t.Error("nil app accepted")
	}
	if _, err := reshape.Run(context.Background(), app, reshape.WithMaxIterations(0)); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := reshape.Run(context.Background(), app, reshape.WithResizeEvery(0)); err == nil {
		t.Error("zero resize spacing accepted")
	}
	if _, err := reshape.Run(context.Background(), app, reshape.WithTopology(grid.Topology{})); err == nil {
		t.Error("empty topology accepted")
	}
	if _, err := reshape.Run(context.Background(), app, reshape.WithScheduler(nil)); err == nil {
		t.Error("nil scheduler accepted")
	}
}

func TestRunCountsResizesWithoutArrays(t *testing.T) {
	// An app registering no arrays (like the master-worker workload) still
	// resizes: topology changes must be counted from the loop, not derived
	// from redistribution observations (empty here).
	client := &resize.ScriptedClient{Script: []scheduler.Decision{
		{Action: scheduler.ActionExpand, Target: topo(2, 2)},
		{Action: scheduler.ActionShrink, Target: topo(1, 2)},
	}}
	rep, err := reshape.Run(context.Background(), noopApp{},
		reshape.WithScheduler(client),
		reshape.WithTopology(topo(1, 2)),
		reshape.WithMaxIterations(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resizes != 2 {
		t.Errorf("report counted %d resizes, want 2 (no arrays registered)", rep.Resizes)
	}
	if len(client.Completed) != 2 {
		t.Errorf("%d completed resizes at the scheduler, want 2", len(client.Completed))
	}
	if rep.FinalTopo != topo(1, 2) {
		t.Errorf("final topo %v", rep.FinalTopo)
	}
}

func TestRunDefaultsToStaticNullClient(t *testing.T) {
	// Without WithScheduler the app runs statically: default 10 iterations
	// on the default 1x1 topology, never resizing.
	app := &countingApp{}
	rep, err := reshape.Run(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 10 || rep.FinalTopo != topo(1, 1) || rep.Resizes != 0 {
		t.Errorf("defaults: %d iterations on %v with %d resizes", rep.Iterations, rep.FinalTopo, rep.Resizes)
	}
}
