package durability

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
)

// driverProcs is the cluster size used by the randomized tests: small
// enough that submissions contend and the queue stays populated.
const driverProcs = 16

// driver feeds a journaled core a random but always-valid op stream — the
// same five inputs a live reshaped daemon receives — and remembers every op
// it acknowledged, so tests can rebuild the expected state independently.
type driver struct {
	t    *testing.T
	rng  *rand.Rand
	core *scheduler.Core
	now  float64
	// acked holds every op whose core method returned success (which, with
	// a journal installed, implies the journal accepted it first).
	acked []scheduler.Op
	// pendingResize marks running jobs granted a resize they have not yet
	// confirmed with ResizeComplete.
	pendingResize map[int]bool
	submitted     int
}

func newDriver(t *testing.T, rng *rand.Rand, core *scheduler.Core) *driver {
	return &driver{t: t, rng: rng, core: core, pendingResize: map[int]bool{}}
}

// ladder is the processor chain every driver job resizes along.
var ladder = []grid.Topology{grid.Row1D(2), grid.Row1D(4), grid.Row1D(8)}

func (d *driver) spec() scheduler.JobSpec {
	init := ladder[d.rng.Intn(len(ladder))]
	return scheduler.JobSpec{
		Name:        fmt.Sprintf("job-%d", d.submitted),
		App:         "jacobi",
		ProblemSize: 4000,
		BlockSize:   64,
		Iterations:  10,
		Priority:    d.rng.Intn(3),
		InitialTopo: init,
		Chain:       ladder,
	}
}

// contactable lists running jobs with no resize in flight, in id order.
func (d *driver) contactable() []*scheduler.Job {
	var out []*scheduler.Job
	for _, j := range d.core.Jobs() {
		if j.State == scheduler.Running && !d.pendingResize[j.ID] {
			out = append(out, j)
		}
	}
	return out
}

func (d *driver) pending() []int {
	var out []int
	for _, j := range d.core.Jobs() {
		if d.pendingResize[j.ID] {
			out = append(out, j.ID)
		}
	}
	return out
}

// step performs one random valid operation against the core and records it
// as acknowledged.
func (d *driver) step() {
	d.t.Helper()
	d.now += 0.5 + d.rng.Float64()
	running := d.contactable()
	pend := d.pending()

	roll := d.rng.Intn(10)
	switch {
	case roll < 4 || (len(running) == 0 && len(pend) == 0):
		sp := d.spec()
		if _, _, err := d.core.Submit(sp, d.now); err != nil {
			d.t.Fatalf("submit: %v", err)
		}
		d.submitted++
		d.acked = append(d.acked, scheduler.Op{Kind: scheduler.OpSubmit, Now: d.now, Spec: sp})
	case len(pend) > 0 && (roll < 6 || len(running) == 0):
		id := pend[d.rng.Intn(len(pend))]
		red := 0.1 + d.rng.Float64()
		if _, err := d.core.ResizeComplete(id, red, d.now); err != nil {
			d.t.Fatalf("resize-complete job %d: %v", id, err)
		}
		delete(d.pendingResize, id)
		d.acked = append(d.acked, scheduler.Op{Kind: scheduler.OpResizeComplete, Now: d.now, JobID: id, RedistTime: red})
	case len(running) > 0 && roll < 8:
		j := running[d.rng.Intn(len(running))]
		iter := 1 + d.rng.Float64()*10
		topo := j.Topo
		dec, err := d.core.Contact(j.ID, topo, iter, 0, d.now)
		if err != nil {
			d.t.Fatalf("contact job %d: %v", j.ID, err)
		}
		if dec.Action != scheduler.ActionNone {
			d.pendingResize[j.ID] = true
		}
		d.acked = append(d.acked, scheduler.Op{Kind: scheduler.OpContact, Now: d.now, JobID: j.ID, Topo: topo, IterTime: iter})
	default:
		j := running[d.rng.Intn(len(running))]
		kind, op := scheduler.OpFinish, "finish"
		var err error
		if d.rng.Intn(4) == 0 {
			kind, op = scheduler.OpFail, "fail"
			_, err = d.core.Fail(j.ID, d.now)
		} else {
			_, err = d.core.Finish(j.ID, d.now)
		}
		if err != nil {
			d.t.Fatalf("%s job %d: %v", op, j.ID, err)
		}
		d.acked = append(d.acked, scheduler.Op{Kind: kind, Now: d.now, JobID: j.ID})
	}
}

// nextOp fabricates one more valid op without applying it to the core: the
// crash tests append it to the log and then "die" at various points of its
// lifecycle.
func (d *driver) nextOp() scheduler.Op {
	d.now += 0.5 + d.rng.Float64()
	if running := d.contactable(); len(running) > 0 && d.rng.Intn(2) == 0 {
		j := running[d.rng.Intn(len(running))]
		return scheduler.Op{Kind: scheduler.OpContact, Now: d.now, JobID: j.ID, Topo: j.Topo, IterTime: 1 + d.rng.Float64()*10}
	}
	return scheduler.Op{Kind: scheduler.OpSubmit, Now: d.now, Spec: d.spec()}
}

// replayOps rebuilds a core by applying ops to a fresh cluster — the
// test's independent model of what recovery must produce.
func replayOps(t *testing.T, ops []scheduler.Op) *scheduler.Core {
	t.Helper()
	return replayOpsOn(t, driverProcs, ops)
}

// replayOpsOn is replayOps for a cluster of total processors.
func replayOpsOn(t *testing.T, total int, ops []scheduler.Op) *scheduler.Core {
	t.Helper()
	core := scheduler.NewCore(total, true)
	for i, op := range ops {
		if err := core.Apply(op); err != nil {
			t.Fatalf("model replay: op %d (%s): %v", i, op.Kind, err)
		}
	}
	return core
}

// requireSameState asserts two cores hold bit-identical scheduling state:
// every job (spec, state, topology, timestamps, profile, in-flight
// shrink), the pool occupancy, the queue contents and the busy-time
// integral. PersistState is a faithful deep image of all of it.
func requireSameState(t *testing.T, want, got *scheduler.Core) {
	t.Helper()
	ws, gs := want.PersistState(), got.PersistState()
	if !reflect.DeepEqual(ws, gs) {
		for i := range ws.Jobs {
			if i < len(gs.Jobs) && !reflect.DeepEqual(ws.Jobs[i], gs.Jobs[i]) {
				t.Errorf("job %d diverged:\n want %+v\n  got %+v", ws.Jobs[i].ID, ws.Jobs[i], gs.Jobs[i])
			}
		}
		t.Fatalf("recovered state diverged: want %d jobs (next id %d, busy %.3f), got %d jobs (next id %d, busy %.3f)",
			len(ws.Jobs), ws.NextID, ws.BusySeconds, len(gs.Jobs), gs.NextID, gs.BusySeconds)
	}
	if want.Free() != got.Free() || want.QueueLen() != got.QueueLen() {
		t.Fatalf("recovered pool diverged: want free=%d queue=%d, got free=%d queue=%d",
			want.Free(), want.QueueLen(), got.Free(), got.QueueLen())
	}
}

// allEvents copies a core's allocation trace out.
func allEvents(c *scheduler.Core) []scheduler.AllocEvent {
	var out []scheduler.AllocEvent
	for _, e := range c.Events {
		out = append(out, e)
	}
	return out
}

// buildRecovered is the standard Restore callback for the driver cluster.
func buildRecovered(st *scheduler.CoreState) (*scheduler.Core, error) {
	return buildOn(driverProcs)(st)
}

// buildOn is the Restore callback for a cluster of total processors.
func buildOn(total int) func(*scheduler.CoreState) (*scheduler.Core, error) {
	return func(st *scheduler.CoreState) (*scheduler.Core, error) {
		if st == nil {
			return scheduler.NewCore(total, true), nil
		}
		return scheduler.NewCoreFromState(st)
	}
}
