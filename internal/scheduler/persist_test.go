package scheduler

import (
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
