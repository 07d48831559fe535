package scheduler

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/grid"
)

// TestNewCoreFromStateRejectsImpossibleStates restores crafted snapshots.
// Those no sequence of Submit, Contact, ResizeComplete and Finish can
// produce must be refused, like the restore's other corruption checks,
// rather than yield a core with a wrong idle count or an unstartable queue
// head.
func TestNewCoreFromStateRejectsImpossibleStates(t *testing.T) {
	queued := func(id int, initial grid.Topology) PersistedJob {
		return PersistedJob{ID: id, Spec: spec("q", initial, 8000), State: Queued, Topo: initial}
	}
	running := func(id int, at grid.Topology, pendingFree int) PersistedJob {
		return PersistedJob{ID: id, Spec: spec("r", at, 8000), State: Running, Topo: at, PendingFree: pendingFree}
	}
	state := func(jobs ...PersistedJob) CoreState {
		return CoreState{Total: 16, NextID: len(jobs), Jobs: jobs}
	}
	cases := []struct {
		name string
		st   CoreState
		want string // error substring; "" means the state restores
	}{
		{"mid-shrink job and a waiting head", state(running(0, topo(2, 2), 2), queued(1, topo(4, 4))), ""},
		{"queued job larger than the cluster", state(queued(0, topo(4, 8))), "queued job 0 needs 32 procs, cluster has 16"},
		{"negative give-back", state(running(0, topo(2, 2), -2)), "running job 0 has invalid allocation"},
		{"running jobs overcommit", state(running(0, topo(2, 4), 0), running(1, topo(2, 4), 2)), "overcommit the pool at job 1"},
	}
	for _, tc := range cases {
		c, err := NewCoreFromState(&tc.st)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want == "" && c.Busy() != 6:
			t.Errorf("%s: restored core has %d busy, jobs hold 6", tc.name, c.Busy())
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRestoredIDGapsAreHoles restores a state whose ids skip numbers, as
// one with finished jobs left out would: a gap is no job to every lookup,
// Jobs walks past it, and persisting the restored core gives the state
// back.
func TestRestoredIDGapsAreHoles(t *testing.T) {
	c := NewCore(16, false)
	for i := 0; i < 7; i++ {
		if _, _, err := c.Submit(spec(fmt.Sprint("j", i), topo(2, 2), 8000), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	full := c.PersistState()
	st := *full
	st.Jobs = nil
	kept := []int{0, 2, 5}
	for _, id := range kept {
		st.Jobs = append(st.Jobs, full.Jobs[id])
	}
	r, err := NewCoreFromState(&st)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, 1, 3, 4, 6, 7, 1 << 40} {
		if j, ok := r.Job(id); ok || j != nil {
			t.Errorf("Job(%d) = %v, %v on a restored core without it", id, j, ok)
		}
		if _, err := r.Contact(id, topo(2, 2), 1, 0, 10); err == nil || !strings.Contains(err.Error(), "unknown job") {
			t.Errorf("Contact(%d): error %v, want unknown job", id, err)
		}
		if _, err := r.Finish(id, 10); err == nil || !strings.Contains(err.Error(), "unknown job") {
			t.Errorf("Finish(%d): error %v, want unknown job", id, err)
		}
		if _, err := r.ResizeComplete(id, 0, 10); err == nil || !strings.Contains(err.Error(), "unknown job") {
			t.Errorf("ResizeComplete(%d): error %v, want unknown job", id, err)
		}
	}
	var ids []int
	for _, j := range r.Jobs() {
		ids = append(ids, j.ID)
	}
	if !slices.Equal(ids, kept) {
		t.Errorf("Jobs() ids %v, want %v", ids, kept)
	}
	for _, id := range kept {
		if j, ok := r.Job(id); !ok || j.ID != id {
			t.Errorf("Job(%d) = %v, %v", id, j, ok)
		}
	}
	if got := r.PersistState(); !reflect.DeepEqual(got, &st) {
		t.Errorf("round trip through a restored core with gaps:\n got %+v\nwant %+v", got, &st)
	}
}

// TestPersistStateOrdersRedistPairsByKey: PersistState hands a profile's
// pairs over in ascending "RxC->RxC" key order, the order snapshots store
// them in, whatever order the job recorded them in, and leaves the live
// profile's order alone.
func TestPersistStateOrdersRedistPairsByKey(t *testing.T) {
	c := NewCore(64, false)
	j, _, err := c.Submit(spec("a", topo(4, 1), 8000), 0)
	if err != nil {
		t.Fatal(err)
	}
	recorded := []grid.Topology{topo(8, 1), topo(4, 1), topo(10, 1), topo(8, 1), topo(16, 1)}
	for i, to := range recorded {
		j.resizeFrom, j.Topo = j.Topo, to
		c.running.finishResize(j, float64(i), &c.arena)
	}
	var live, persisted []string
	for _, r := range j.Profile.Redist {
		live = append(live, string(r.AppendKey(nil)))
	}
	for _, r := range c.PersistState().Jobs[0].Profile.Redist {
		persisted = append(persisted, string(r.AppendKey(nil)))
	}
	want := slices.Clone(live)
	slices.Sort(want)
	if !slices.Equal(persisted, want) || slices.Equal(live, want) {
		t.Fatalf("live pairs %q, persisted %q: want the persisted ones sorted, %q", live, persisted, want)
	}
}

// TestResizeCompleteAcrossRestoreAndReplay: a job persisted mid-resize
// confirms on the restored core, recording the redistribution cost, and a
// confirmation the live path refuses — as a log written before that check
// may still hold one — replays as the no-op it was applied as.
func TestResizeCompleteAcrossRestoreAndReplay(t *testing.T) {
	c := NewCore(16, false)
	j, _, err := c.Submit(spec("a", topo(1, 2), 8000), 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Contact(j.ID, j.Topo, 10, 0, 1)
	if err != nil || d.Action != ActionExpand {
		t.Fatalf("contact: %+v, %v", d, err)
	}
	restored, err := NewCoreFromState(c.PersistState())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.ResizeComplete(j.ID, 0.5, 2); err != nil {
		t.Fatalf("job restored mid-resize: %v", err)
	}
	rj, _ := restored.Job(j.ID)
	if cost, ok := rj.Profile.RedistCost(topo(1, 2), d.Target); !ok || cost != 0.5 {
		t.Fatalf("restored confirmation recorded %v, %v; want 0.5", cost, ok)
	}
	before := restored.PersistState()
	op := Op{Kind: OpResizeComplete, Now: 3, JobID: j.ID, RedistTime: 0.7}
	if _, err := restored.ResizeComplete(op.JobID, op.RedistTime, op.Now); err == nil {
		t.Fatal("a second confirmation was accepted")
	}
	if err := restored.Apply(op); err != nil {
		t.Fatalf("replaying an old log's second confirmation: %v", err)
	}
	if after := restored.PersistState(); !reflect.DeepEqual(after, before) {
		t.Fatalf("the replayed confirmation changed the state:\n%+v\n%+v", before, after)
	}
}
