package durability

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// runJournaledW1 runs the W1 workload simulation on total processors with
// the core journaling into dir, and returns the finished core and result.
func runJournaledW1(t *testing.T, dir string, total int, snapshotEvery uint64) (*scheduler.Core, *simcluster.Result) {
	t.Helper()
	core := scheduler.NewCore(total, true)
	st, rec, err := Open(dir, Options{
		Sync:          SyncNone,
		SnapshotEvery: snapshotEvery,
		Capture:       func() (*scheduler.CoreState, uint64) { return core.PersistState(), 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != nil || len(rec.Ops) > 0 {
		t.Fatal("directory not fresh")
	}
	core.SetJournal(st.Append)

	res, err := simcluster.New(total, simcluster.Dynamic, perfmodel.SystemX(), workload.W1()).
		WithCore(core).Run()
	if err != nil {
		t.Fatalf("simulate W1: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return core, res
}

// TestReplayW1BitIdentical journals a full W1 run with no snapshots and
// replays the log from genesis: the recovered scheduler must match bit for
// bit — every job's state, topology and timestamps, the queue, the pool,
// the busy-time integral, and (because replay regenerates it from record
// zero) the entire allocation-event trace of Figures 4(a)/4(b).
func TestReplayW1BitIdentical(t *testing.T) {
	dir := t.TempDir()
	core, res := runJournaledW1(t, dir, workload.ClusterProcs, 0)

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, info, err := rec.Restore(func(st *scheduler.CoreState) (*scheduler.Core, error) {
		if st != nil {
			t.Fatal("unexpected snapshot in a snapshot-free run")
		}
		return scheduler.NewCore(workload.ClusterProcs, true), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != len(rec.Ops) || info.Replayed == 0 {
		t.Fatalf("replayed %d of %d records", info.Replayed, len(rec.Ops))
	}
	requireSameState(t, core, recovered)
	if !reflect.DeepEqual(allEvents(core), allEvents(recovered)) {
		t.Fatalf("allocation trace diverged: %d events vs %d", core.EventCount(), recovered.EventCount())
	}
	if res.Makespan <= 0 {
		t.Fatal("W1 produced no makespan")
	}
	// Per-job outcomes: every job Done with identical end times.
	for _, j := range recovered.Jobs() {
		if j.State != scheduler.Done {
			t.Fatalf("job %q not done after replay", j.Spec.Name)
		}
		orig, _ := core.Job(j.ID)
		if orig.EndTime != j.EndTime || orig.StartTime != j.StartTime {
			t.Fatalf("job %q times diverged: (%v,%v) vs (%v,%v)",
				j.Spec.Name, orig.StartTime, orig.EndTime, j.StartTime, j.EndTime)
		}
	}
}

// TestReplayW1ContendedWithSnapshots runs W1 on a deliberately undersized
// cluster (24 of 36 processors) so the queue stays contended, with a tight
// snapshot cadence, and checks snapshot+tail recovery reaches the same
// final state as the live run.
func TestReplayW1ContendedWithSnapshots(t *testing.T) {
	const contendedProcs = 24
	dir := t.TempDir()
	core, _ := runJournaledW1(t, dir, contendedProcs, 25)

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.State == nil {
		t.Fatal("tight cadence produced no snapshot")
	}
	recovered, info, err := rec.Restore(func(st *scheduler.CoreState) (*scheduler.Core, error) {
		return scheduler.NewCoreFromState(st)
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != len(rec.Ops) {
		t.Fatalf("replayed %d of the %d-record tail", info.Replayed, len(rec.Ops))
	}
	requireSameState(t, core, recovered)
}

// TestReplayMidFlight crashes a contended W1 run part-way (while jobs are
// queued and resizes are in flight) and checks the recovered core matches
// the live core at the moment of the crash — the case an operator actually
// cares about.
func TestReplayMidFlight(t *testing.T) {
	for _, every := range []uint64{0, 10} {
		dir := t.TempDir()
		core := scheduler.NewCore(24, true)
		st, _, err := Open(dir, Options{
			Sync:          SyncNone,
			SnapshotEvery: every,
			Capture:       func() (*scheduler.CoreState, uint64) { return core.PersistState(), 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		core.SetJournal(st.Append)

		// Drive the random mixed workload instead of the full event engine:
		// stop at an arbitrary point with work queued and running.
		rng := rand.New(rand.NewSource(42))
		d := newDriver(t, rng, core)
		for i := 0; i < 120; i++ {
			d.step()
		}
		st.Close()

		if core.QueueLen() == 0 {
			t.Fatal("mid-flight crash point has an empty queue; test lost its bite")
		}

		_, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		recovered, _, err := rec.Restore(func(cs *scheduler.CoreState) (*scheduler.Core, error) {
			if cs == nil {
				return scheduler.NewCore(24, true), nil
			}
			return scheduler.NewCoreFromState(cs)
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, core, recovered)
	}
}
