package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/grid"
)

// sweepRunning rebuilds, from the jobs alone, everything the running set
// keeps incrementally: the id-ordered views (RemainingIters re-summed from
// the profile), and through RunningViews the per-tenant usage, the in-flight
// total and the shrinkable ids.
func sweepRunning(jobs []*Job) RunningViews {
	var views RunningViews
	for _, j := range jobs {
		if j.State != Running {
			continue
		}
		v := contactView(j)
		v.RemainingIters = j.Spec.Iterations - profiledIters(j.Profile)
		views = append(views, v)
	}
	return views
}

// runningJobs lists the core's running jobs in id order.
func runningJobs(c *Core) []*Job {
	var running []*Job
	for _, j := range c.Jobs() {
		if j.State == Running {
			running = append(running, j)
		}
	}
	return running
}

func viewIDs(each func(func(*ContactView) bool)) []int {
	var ids []int
	each(func(v *ContactView) bool {
		ids = append(ids, v.ID)
		return true
	})
	return ids
}

// indexedSet returns rs once its id indexes are built, and until then a copy
// of rs with them built from the same job table, so checking a core never
// builds its indexes. The copy shares nothing the build writes: unbuilt
// indexes are nil.
func indexedSet(rs *runningSet) *runningSet {
	if rs.indexed {
		return rs
	}
	cp := *rs
	cp.index()
	return &cp
}

// checkInvariants holds the core to what DESIGN.md states of it, after any
// op and inside any arbiter call:
//   - the idle count conserves processors: idle >= 0, and idle plus every
//     running job's Topo and pending give-back is the cluster;
//   - every job is in exactly one of queue, running set or done: the queue
//     holds exactly the Queued jobs, the running set counts exactly the
//     Running ones and flags exactly the shrinkable ones among them;
//   - the running set's id indexes, and the snapshot an arbiter would be
//     handed, equal a plain sweep over the jobs, and every queued view is the
//     one queuedView builds for its job. Until the indexes are built, a copy
//     built from the job table is held to the sweep instead;
//   - allocation-event timestamps never decrease.
func checkInvariants(c *Core, snap ClusterSnapshot) error {
	jobs := c.Jobs()
	held := 0
	byID := make(map[int]*Job, len(jobs))
	var queued, running []int
	for _, j := range jobs {
		byID[j.ID] = j
		switch j.State {
		case Queued:
			queued = append(queued, j.ID)
		case Running:
			running = append(running, j.ID)
			held += j.Topo.Count() + j.pendingFree
		}
	}
	if snap.Idle < 0 || snap.Idle+held != snap.Total {
		return fmt.Errorf("idle %d + held %d != total %d", snap.Idle, held, snap.Total)
	}
	var inQueue, inRunning, shrinkable, flagged []int
	for _, j := range c.queue.window(nil, c.queue.len()) {
		inQueue = append(inQueue, j.ID)
	}
	slices.Sort(inQueue)
	if c.QueueLen() != len(queued) || !slices.Equal(inQueue, queued) {
		return fmt.Errorf("queue holds %v (QueueLen %d), the Queued jobs are %v", inQueue, c.QueueLen(), queued)
	}
	if c.running.count != len(running) {
		return fmt.Errorf("running set counts %d jobs, the Running jobs are %v", c.running.count, running)
	}
	for _, j := range jobs {
		if j.State == Running && len(j.Profile.ShrinkPoints(j.Topo)) > 0 {
			shrinkable = append(shrinkable, j.ID)
		}
		if j.shrinkable {
			flagged = append(flagged, j.ID)
		}
	}
	if !slices.Equal(flagged, shrinkable) {
		return fmt.Errorf("jobs %v are flagged shrinkable, the shrinkable running jobs are %v", flagged, shrinkable)
	}
	if snap.Cluster != ClusterView(&c.running) {
		return fmt.Errorf("snapshot's Cluster is %T %p, not the core's running set", snap.Cluster, snap.Cluster)
	}
	rs := indexedSet(&c.running)
	for _, j := range rs.jobs {
		inRunning = append(inRunning, j.ID)
	}
	if !slices.Equal(inRunning, running) {
		return fmt.Errorf("running set holds %v, the Running jobs are %v", inRunning, running)
	}
	for i := 1; i < len(c.Events); i++ {
		if c.Events[i].Time < c.Events[i-1].Time {
			return fmt.Errorf("alloc event %d at t=%v follows one at t=%v", i, c.Events[i].Time, c.Events[i-1].Time)
		}
	}
	for i, q := range snap.Queued {
		j, ok := byID[q.ID]
		if !ok {
			return fmt.Errorf("Queued[%d] = %+v names no job", i, q)
		}
		if want := queuedView(j); q != want {
			return fmt.Errorf("Queued[%d] = %+v, job gives %+v", i, q, want)
		}
	}
	want := sweepRunning(jobs)
	var got RunningViews
	rs.EachRunning(func(v *ContactView) bool {
		got = append(got, *v)
		return true
	})
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("running views\n got %+v\nwant %+v", got, want)
	}
	tenants, pendingFree := want.Aggregates()
	if !reflect.DeepEqual(snap.Tenants, tenants) && (len(snap.Tenants) > 0 || len(tenants) > 0) {
		return fmt.Errorf("Tenants %+v, sweep gives %+v", snap.Tenants, tenants)
	}
	if snap.PendingFree != pendingFree {
		return fmt.Errorf("PendingFree %d, sweep gives %d", snap.PendingFree, pendingFree)
	}
	if gotIDs, wantIDs := viewIDs(rs.EachShrinkable), viewIDs(want.EachShrinkable); !reflect.DeepEqual(gotIDs, wantIDs) {
		return fmt.Errorf("shrinkable %v, sweep gives %v", gotIDs, wantIDs)
	}
	if err := checkExpandable(rs, want); err != nil {
		return err
	}
	for _, j := range jobs {
		if j.itersDone != profiledIters(j.Profile) {
			return fmt.Errorf("job %d: itersDone %d, profile holds %d", j.ID, j.itersDone, profiledIters(j.Profile))
		}
		if v, ok := rs.Running(j.ID); ok != (j.State == Running) || ok && v.ID != j.ID {
			return fmt.Errorf("Running(%d) = %+v, %v while the job is %v", j.ID, v, ok, j.State)
		}
	}
	return nil
}

// checkExpandable holds EachExpandable to its definition, RunningViews'
// sweep, on every window whose bounds are a step size present in the set,
// one below it, or unbounded: every way a window can start or end inside,
// on or between the index's buckets. The sets must match; the order is the
// producer's own.
func checkExpandable(cluster ClusterView, want RunningViews) error {
	bounds := []int{math.MinInt, math.MaxInt}
	for _, v := range want {
		if next, ok := NextInChain(v.Chain, v.Topo); ok {
			d := next.Count() - v.Topo.Count()
			bounds = append(bounds, d-1, d)
		}
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	var got, wantIDs []int
	collect := func(ids *[]int) func(*ContactView) bool {
		*ids = (*ids)[:0]
		return func(v *ContactView) bool {
			*ids = append(*ids, v.ID)
			return true
		}
	}
	for i, lo := range bounds {
		for _, hi := range bounds[i:] {
			cluster.EachExpandable(lo, hi, collect(&got))
			want.EachExpandable(lo, hi, collect(&wantIDs))
			slices.Sort(got)
			if !slices.Equal(got, wantIDs) {
				return fmt.Errorf("expandable [%d, %d] %v, sweep gives %v", lo, hi, got, wantIDs)
			}
		}
	}
	return nil
}

// feedKey is everything about a running job the change feed promises to
// report a change of.
type feedKey struct {
	topo        grid.Topology
	remaining   int
	stamp       uint64
	pendingFree int
}

// feedReader reads a running set's change feed after every op, keeping its
// cursor across ops the way a planner keeps it across ticks, and holds what
// it is told to what it can see for itself.
type feedReader struct {
	rs     *runningSet
	cursor Cursor
	keys   map[int]feedKey // each running job's key at the last read
}

// check reads the feed. It must resync exactly when the reader is new to
// rs (its first read, or a restored core's), and otherwise name every job
// that started or finished since the last read and every running job whose
// key changed.
func (f *feedReader) check(rs *runningSet, jobs []*Job) error {
	named := map[int]bool{}
	next, ok := rs.Changes(f.cursor, func(id int) { named[id] = true })
	if wantOK := f.rs == rs; ok != wantOK {
		return fmt.Errorf("Changes ok = %v, want %v (a resync exactly when the reader is new to the set)", ok, wantOK)
	}
	keys := map[int]feedKey{}
	for _, j := range jobs {
		if j.State == Running {
			keys[j.ID] = feedKey{topo: j.Topo, remaining: remainingIters(j), stamp: j.Profile.Stamp(), pendingFree: j.pendingFree}
		}
	}
	if ok {
		for id := range keys {
			if was, had := f.keys[id]; (!had || was != keys[id]) && !named[id] {
				return fmt.Errorf("job %d started or changed (%+v -> %+v) and the feed did not name it", id, was, keys[id])
			}
		}
		for id := range f.keys {
			if _, has := keys[id]; !has && !named[id] {
				return fmt.Errorf("job %d finished and the feed did not name it", id)
			}
		}
	}
	if _, ok := (RunningViews{}).Changes(next, func(int) {}); ok {
		return fmt.Errorf("RunningViews.Changes said ok")
	}
	f.rs, f.cursor, f.keys = rs, next, keys
	return nil
}

// diceArbiter answers contacts with random legal (and, now and then,
// ungrantable) resizes, so op sequences reach every transition of the
// bookkeeping — repeated shrinks before a ResizeComplete, an expansion whose
// grant fails, a shrink back down to the starting rung. It also takes the
// StartPicker and Planner seats, to see the snapshots those are handed.
type diceArbiter struct {
	rng   *rand.Rand
	check func(ClusterSnapshot) // run on every snapshot the arbiter is handed
}

func (a *diceArbiter) Name() string { return "dice" }

func (a *diceArbiter) Decide(snap ClusterSnapshot) Decision {
	a.check(snap)
	switch a.rng.Intn(3) {
	case 0:
		if next, ok := NextInChain(snap.Caller.Chain, snap.Caller.Topo); ok &&
			(next.Count()-snap.Caller.Topo.Count() <= snap.Idle || a.rng.Intn(4) == 0) {
			return Decision{Action: ActionExpand, Target: next}
		}
	case 1:
		if pts := snap.Caller.Profile.ShrinkPoints(snap.Caller.Topo); len(pts) > 0 {
			return Decision{Action: ActionShrink, Target: pts[a.rng.Intn(len(pts))]}
		}
	}
	return Decision{}
}

func (a *diceArbiter) Rebalance(snap ClusterSnapshot) { a.check(snap) }

func (a *diceArbiter) PickStart(snap StartSnapshot) int {
	a.check(ClusterSnapshot{Total: snap.Total, Idle: snap.Idle,
		Tenants: snap.Tenants, PendingFree: snap.PendingFree, Cluster: snap.Cluster})
	for i, h := range snap.Heads {
		if h.Need <= snap.Idle {
			return i
		}
	}
	return -1
}

// TestAggregatesMatchSweep drives the core through seeded random op
// sequences — Submit, Contact, ResizeComplete, Finish, Fail and planning
// ticks over three tenants and three priorities, with a snapshot/restore
// round trip in the middle of each sequence — and after every single op
// compares the idle count, the queued views, Tenants, PendingFree, the
// per-job iteration counters, the shrinkable and expandable indexes and the
// running views with a plain sweep over the jobs (checkInvariants), and
// holds the change feed to the jobs' own keys through a reader that keeps
// its cursor across ops. The arbiter never walks the running set, so the
// core's id indexes stay unbuilt until the test builds them at a seeded op
// before the restore, and the restored core's at a seeded op after it:
// both regimes are checked on both sides of the restore. Each sequence
// ends by draining the cluster, which must leave no job queued and no
// processor leaked.
func TestAggregatesMatchSweep(t *testing.T) {
	tenants := []string{"", "blue", "green"}
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		total := 16 + rng.Intn(48)
		arb := &diceArbiter{rng: rand.New(rand.NewSource(seed + 1000))}
		var core *Core
		var feed feedReader
		install := func(c *Core) {
			core = c
			arb.check = func(snap ClusterSnapshot) {
				if err := checkInvariants(core, snap); err != nil {
					t.Fatalf("seed %d, snapshot handed to the arbiter: %v", seed, err)
				}
			}
			c.SetArbiter(arb)
		}
		install(NewCore(total, rng.Intn(2) == 0))
		now := 0.0
		ops := 150 + rng.Intn(150)
		restoreAt := ops / 2
		// Seeded apart from rng, so the op sequences stay what they were.
		pickOp := rand.New(rand.NewSource(seed + 2000))
		indexAt := [2]int{1 + pickOp.Intn(restoreAt), restoreAt + 1 + pickOp.Intn(ops-restoreAt-1)}
		for op := 0; op < ops; op++ {
			now += rng.Float64() * 5
			running := runningJobs(core)
			pick := func() *Job { return running[rng.Intn(len(running))] }
			step := "rebalance"
			var err error
			switch k := rng.Intn(10); {
			case k < 3 || len(running) == 0:
				step = "submit"
				n := []int{8000, 12000, 14000, 21000}[rng.Intn(4)]
				start, ok := grid.SmallestConfig(n, 2+rng.Intn(4), total)
				if !ok {
					continue
				}
				_, _, err = core.Submit(JobSpec{
					Name: "j", App: "lu", ProblemSize: n, Iterations: 5 + rng.Intn(20),
					Priority: rng.Intn(3), Tenant: tenants[rng.Intn(len(tenants))],
					InitialTopo: start, Chain: grid.GrowthChain(start, n, total),
				}, now)
			case k < 6:
				step = "contact"
				j := pick()
				_, err = core.Contact(j.ID, j.Topo, 10+rng.Float64()*90, 0, now)
			case k < 8:
				step = "resize-complete"
				_, err = core.ResizeComplete(pick().ID, rng.Float64(), now)
			case k == 8:
				step = "finish"
				if rng.Intn(3) == 0 {
					step = "fail"
					_, err = core.Fail(pick().ID, now)
				} else {
					_, err = core.Finish(pick().ID, now)
				}
			default:
				err = core.Rebalance(now)
			}
			if err != nil {
				t.Fatalf("seed %d op %d %s: %v", seed, op, step, err)
			}
			if op == indexAt[0] || op == indexAt[1] {
				if core.running.indexed {
					t.Fatalf("seed %d op %d: the indexes were built before the test asked", seed, op)
				}
				step += " + index"
				core.running.EachRunning(func(*ContactView) bool { return false })
				if !core.running.indexed {
					t.Fatalf("seed %d op %d: EachRunning left the indexes unbuilt", seed, op)
				}
			}
			if op == restoreAt {
				step += " + restore"
				restored, err := NewCoreFromState(core.PersistState())
				if err != nil {
					t.Fatalf("seed %d op %d: restore: %v", seed, op, err)
				}
				install(restored)
			}
			if err := checkInvariants(core, core.globalSnapshot(now)); err != nil {
				t.Fatalf("seed %d op %d after %s: %v", seed, op, step, err)
			}
			if err := feed.check(&core.running, core.Jobs()); err != nil {
				t.Fatalf("seed %d op %d after %s: change feed: %v", seed, op, step, err)
			}
		}

		// Drain: finish every running job, round after round as the queue
		// starts into the room, until nothing runs. The queue must then be
		// empty and every processor idle again.
		for running := runningJobs(core); len(running) > 0; running = runningJobs(core) {
			for _, j := range running {
				if _, err := core.Finish(j.ID, now); err != nil {
					t.Fatalf("seed %d drain: finish %d: %v", seed, j.ID, err)
				}
			}
			if err := checkInvariants(core, core.globalSnapshot(now)); err != nil {
				t.Fatalf("seed %d drain: %v", seed, err)
			}
		}
		if core.QueueLen() != 0 || core.Free() != core.Total {
			t.Fatalf("seed %d drained: %d jobs still queued, %d of %d processors idle",
				seed, core.QueueLen(), core.Free(), core.Total)
		}
	}
}

// TestPublishedPathNeverBuildsExpandableIndex: the running set's id indexes
// and the change log exist for arbiters that ask for them. A core on the
// published single-job path — no arbiter — starts, expands, shrinks and
// finishes jobs without ever filing one in any of them.
func TestPublishedPathNeverBuildsExpandableIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCore(48, true)
	now, resized := 0.0, 0
	for op := 0; op < 400; op++ {
		now += rng.Float64() * 5
		running := runningJobs(c)
		var err error
		switch k := rng.Intn(10); {
		case k < 2 || len(running) == 0:
			n := []int{8000, 12000, 14000}[rng.Intn(3)]
			start, _ := grid.SmallestConfig(n, 2, 48)
			_, _, err = c.Submit(JobSpec{Name: "j", App: "lu", ProblemSize: n, Iterations: 50,
				InitialTopo: start, Chain: grid.GrowthChain(start, n, 48)}, now)
		case k < 8:
			j := running[rng.Intn(len(running))]
			var d Decision
			if d, err = c.Contact(j.ID, j.Topo, 10+rng.Float64()*90, 0, now); err == nil && d.Action != ActionNone {
				resized++
				_, err = c.ResizeComplete(j.ID, 1, now)
			}
		default:
			_, err = c.Finish(running[rng.Intn(len(running))].ID, now)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if resized == 0 {
		t.Fatal("no contact resized a job: the retopo path went unexercised")
	}
	if r := &c.running; r.indexed || r.jobs != nil || r.shrinkable != nil || r.expandable.keys != nil {
		t.Fatalf("published path built the id indexes: %d running, %d shrinkable, %d expandable buckets",
			len(r.jobs), len(r.shrinkable), len(r.expandable.keys))
	}
	if c.running.logging || c.running.log != nil {
		t.Fatalf("published path kept a change log: %d entries", len(c.running.log))
	}
}

// TestLateIndexMatchesEarlyIndex drives two cores through the same seeded
// ops, one whose id indexes are built before its first op and one whose are
// built after 1 000, and from then on holds every EachRunning,
// EachShrinkable and EachExpandable id list of the late core to the early
// one's: a build from the job table must file exactly what start, finish
// and every move have filed since the beginning.
func TestLateIndexMatchesEarlyIndex(t *testing.T) {
	const total, buildAt, ops = 64, 1000, 1600
	var cores [2]*Core
	for i := range cores {
		cores[i] = NewCore(total, true)
		cores[i].SetArbiter(&diceArbiter{rng: rand.New(rand.NewSource(5)), check: func(ClusterSnapshot) {}})
	}
	early, late := cores[0], cores[1]
	early.running.EachRunning(func(*ContactView) bool { return true })
	lists := func(c *Core) [][]int {
		out := [][]int{viewIDs(c.running.EachRunning), viewIDs(c.running.EachShrinkable)}
		for lo := 0; lo <= total; lo += 4 {
			out = append(out, viewIDs(func(y func(*ContactView) bool) { c.running.EachExpandable(lo, lo+3, y) }))
		}
		return out
	}
	rng := rand.New(rand.NewSource(11))
	now, shrinkable := 0.0, 0
	for op := 0; op < ops; op++ {
		now += rng.Float64() * 5
		running := runningJobs(early)
		kind, pick := rng.Intn(10), 0
		if kind < 3 && early.QueueLen() >= 2 {
			kind = 3 // the cluster is behind: contact instead
		}
		if len(running) > 0 {
			pick = running[rng.Intn(len(running))].ID
		}
		n := []int{8000, 12000, 14000, 21000}[rng.Intn(4)]
		iterTime, width := 10+rng.Float64()*90, 2+rng.Intn(4)
		for _, c := range cores {
			var err error
			switch {
			case kind < 3 || len(running) == 0:
				start, ok := grid.SmallestConfig(n, width, total)
				if !ok {
					continue
				}
				_, _, err = c.Submit(JobSpec{Name: "j", App: "lu", ProblemSize: n, Iterations: 40,
					InitialTopo: start, Chain: grid.GrowthChain(start, n, total)}, now)
			case kind < 6:
				j, _ := c.Job(pick)
				_, err = c.Contact(pick, j.Topo, iterTime, 0, now)
			case kind < 8:
				_, err = c.ResizeComplete(pick, 1, now)
			default:
				_, err = c.Finish(pick, now)
			}
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
		if op < buildAt {
			if late.running.indexed {
				t.Fatalf("op %d: the late core's indexes were built before the test asked", op)
			}
			continue
		}
		got, want := lists(late), lists(early)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: late-built indexes yield %v, built from the start %v", op, got, want)
		}
		shrinkable += len(want[1])
	}
	if shrinkable == 0 {
		t.Fatal("no job was ever shrinkable: the shrinkable index went unexercised")
	}
}
