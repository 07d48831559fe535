package scheduler

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
)

// TestAbandonedServerEndsItsPipeline drops servers, volatile and behind a
// commit barrier, after driving an op through each: their apply and commit
// goroutines must end once nothing holds the servers, or every server a
// process ever built would stay in memory with its core.
func TestAbandonedServerEndsItsPipeline(t *testing.T) {
	// Servers earlier tests dropped end their pipelines when a collection
	// finds them; let those end first, or one ending during the count below
	// takes a goroutine off it. The count has settled when a collection and
	// a pause leave it unchanged (half a second at most).
	before := runtime.NumGoroutine()
	for range 100 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	// The servers stay reachable until the lower bound is read, so none of
	// them can end its pipeline before the count either.
	servers := make([]*Server, 0, 8)
	for i := 0; i < 8; i++ {
		core := NewCore(8, true)
		if i%2 == 1 {
			core.SetJournal(func(Op) error { return nil })
			core.SetCommit(func() error { return nil })
		}
		srv := NewServerCore(core, nil)
		if _, err := srv.Submit(context.Background(), spec("a", topo(1, 2), 8000)); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	if n := runtime.NumGoroutine(); n < before+12 {
		t.Fatalf("%d goroutines with eight servers up, %d before: the pipelines did not start", n, before)
	}
	runtime.KeepAlive(servers) // the servers' last use: from here they may go
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the servers were dropped, %d before", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// countingJournal installs a journal hook on core that counts the records of
// each op kind.
func countingJournal(core *Core) func(OpKind) int {
	var mu sync.Mutex
	n := map[OpKind]int{}
	core.SetJournal(func(op Op) error {
		mu.Lock()
		n[op.Kind]++
		mu.Unlock()
		return nil
	})
	return func(k OpKind) int {
		mu.Lock()
		defer mu.Unlock()
		return n[k]
	}
}

// TestServerRefusesBadTimes reports NaN, +Inf and -1 as a contact's
// iteration and redistribution time and as a granted resize's
// redistribution time: each call fails, and none reaches the journal.
func TestServerRefusesBadTimes(t *testing.T) {
	ctx := context.Background()
	core := NewCore(8, true)
	journaled := countingJournal(core)
	srv := NewServerCore(core, nil)
	id, err := srv.Submit(ctx, spec("a", topo(1, 2), 8000))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := srv.Contact(ctx, id, topo(1, 2), bad, 0); err == nil {
			t.Errorf("contact with iteration time %v accepted", bad)
		}
		if _, err := srv.Contact(ctx, id, topo(1, 2), 1, bad); err == nil {
			t.Errorf("contact with redistribution time %v accepted", bad)
		}
	}
	if n := journaled(OpContact); n != 0 {
		t.Fatalf("refused calls journaled %d contacts", n)
	}
	if d, err := srv.Contact(ctx, id, topo(1, 2), 1, 0); err != nil || d.Action != ActionExpand || journaled(OpContact) != 1 {
		t.Fatalf("a good contact: %+v, err %v, %d journaled", d, err, journaled(OpContact))
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
		if err := srv.ResizeComplete(ctx, id, bad); err == nil {
			t.Errorf("resize completion with redistribution time %v accepted", bad)
		}
	}
	if n := journaled(OpResizeComplete); n != 0 {
		t.Fatalf("refused calls journaled %d resize completions", n)
	}
}

// TestServerRefusesUngrantedResizeComplete confirms a resize for a running
// job that was granted none, for a queued job and for a finished one: each
// call fails and none reaches the journal.
func TestServerRefusesUngrantedResizeComplete(t *testing.T) {
	ctx := context.Background()
	core := NewCore(4, false)
	journaled := countingJournal(core)
	srv := NewServerCore(core, nil)
	running, err := srv.Submit(ctx, spec("running", topo(1, 4), 8000))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := srv.Submit(ctx, spec("queued", topo(1, 2), 8000))
	if err != nil {
		t.Fatal(err)
	}
	refuse := func(what string, id int) {
		t.Helper()
		if err := srv.ResizeComplete(ctx, id, 0.5); err == nil {
			t.Errorf("%s job %d confirmed a resize it was never granted", what, id)
		}
	}
	refuse("running", running)
	refuse("queued", queued)
	if d, err := srv.Contact(ctx, running, topo(1, 4), 1, 0); err != nil || d.Action != ActionNone {
		t.Fatalf("contact on a full pool: %+v, %v", d, err)
	}
	refuse("running", running)
	if err := srv.JobEnd(ctx, running); err != nil {
		t.Fatal(err)
	}
	refuse("finished", running)
	if n := journaled(OpResizeComplete); n != 0 {
		t.Fatalf("refused confirmations journaled %d records", n)
	}
}

// TestServerRebalanceJournalsTicks drives planning ticks through a Server:
// each one is journaled under a Planner arbiter, and none is with no
// arbiter.
func TestServerRebalanceJournalsTicks(t *testing.T) {
	ctx := context.Background()
	for _, planner := range []bool{true, false} {
		core := NewCore(8, true)
		if planner {
			core.SetArbiter(&diceArbiter{rng: rand.New(rand.NewSource(1)), check: func(ClusterSnapshot) {}})
		}
		journaled := countingJournal(core)
		srv := NewServerCore(core, nil)
		const ticks = 5
		for range ticks {
			if err := srv.Rebalance(ctx); err != nil {
				t.Fatal(err)
			}
		}
		want := 0
		if planner {
			want = ticks
		}
		if n := journaled(OpRebalance); n != want {
			t.Errorf("planner %v: %d ticks journaled %d records, want %d", planner, ticks, n, want)
		}
	}
}

// TestRelaunchRunningStartsOnlyRunningJobs recovers a core holding running,
// queued and done jobs: RelaunchRunning starts each running job exactly
// once and returns exactly those.
func TestRelaunchRunningStartsOnlyRunningJobs(t *testing.T) {
	c := NewCore(8, false)
	for i, initial := range []grid.Topology{topo(2, 2), topo(1, 2), topo(1, 2)} {
		if _, _, err := c.Submit(spec("r", initial, 8000), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Finish(1, 3); err != nil { // done
		t.Fatal(err)
	}
	if _, _, err := c.Submit(spec("r", topo(1, 2), 8000), 4); err != nil { // runs as job 3
		t.Fatal(err)
	}
	if _, _, err := c.Submit(spec("q", topo(2, 2), 8000), 5); err != nil { // waits as job 4
		t.Fatal(err)
	}
	restored, err := NewCoreFromState(c.PersistState())
	if err != nil {
		t.Fatal(err)
	}
	if j1, _ := restored.Job(1); j1.State != Done || restored.QueueLen() != 1 {
		t.Fatalf("setup: job 1 %v, %d queued; want done and one waiting", j1.State, restored.QueueLen())
	}
	started := make(chan int, 8)
	srv := NewServerRecovered(restored, 0, 5, func(j *Job) { started <- j.ID })
	var ids []int
	for _, j := range srv.RelaunchRunning() {
		ids = append(ids, j.ID)
	}
	want := []int{0, 2, 3}
	if !slices.Equal(ids, want) {
		t.Fatalf("relaunched %v, want the running jobs %v", ids, want)
	}
	var launched []int
	for range want {
		select {
		case id := <-started:
			launched = append(launched, id)
		case <-time.After(10 * time.Second):
			t.Fatalf("starter ran for %v only, want %v", launched, want)
		}
	}
	select {
	case id := <-started:
		t.Fatalf("starter ran again, for job %d", id)
	case <-time.After(20 * time.Millisecond):
	}
	slices.Sort(launched)
	if !slices.Equal(launched, want) {
		t.Fatalf("starter ran for %v, want %v", launched, want)
	}
}
