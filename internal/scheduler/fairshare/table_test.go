package fairshare

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// stampless copies snap as a new literal, so its stamp is zero.
func stampless(snap scheduler.ClusterSnapshot) scheduler.ClusterSnapshot {
	return scheduler.ClusterSnapshot{
		Now: snap.Now, Total: snap.Total, Idle: snap.Idle, Caller: snap.Caller,
		Queued: snap.Queued, Tenants: snap.Tenants, PendingFree: snap.PendingFree, Cluster: snap.Cluster,
	}
}

// freshTable decides every contact with an empty tenant table on a
// snapshot with stamp 0: the tenant level computed from the snapshot alone.
type freshTable struct{ *FairShare }

func (f freshTable) Decide(snap scheduler.ClusterSnapshot) scheduler.Decision {
	f.table = tenantTable{}
	return f.FairShare.Decide(stampless(snap))
}

// counted counts the contacts its FairShare decides, and those that looked
// a tenant up by name outside a rebuild or fill of the table.
type counted struct {
	*FairShare
	decides, strayLookups int
}

func (c *counted) Decide(snap scheduler.ClusterSnapshot) scheduler.Decision {
	c.decides++
	t := &c.table
	rebuilds, fills, lookups := t.rebuilds, t.fills, t.lookups
	d := c.FairShare.Decide(snap)
	if t.lookups != lookups && t.fills == fills && t.rebuilds == rebuilds {
		c.strayLookups++
	}
	return d
}

// lockstep drives two cores through the same seeded op sequence and fails
// at the first op on which they part.
type lockstep struct {
	t          *testing.T
	rng        *rand.Rand
	cached     *counted
	kept, bare *scheduler.Core
	now        float64
	granted    []int // jobs whose resize awaits its ResizeComplete
	// cSeen records, in order, whether tenant c was active at each
	// contact the cached arbiter decided.
	cSeen []bool
}

// spec draws a job of tenant.
func (l *lockstep) spec(tenant string, n int) scheduler.JobSpec {
	chain := []grid.Topology{{Rows: 1, Cols: 1}, {Rows: 1, Cols: 2}, {Rows: 2, Cols: 2}, {Rows: 2, Cols: 3}, {Rows: 2, Cols: 4}}
	first := l.rng.Intn(3)
	return scheduler.JobSpec{
		Name: fmt.Sprintf("%s%d", tenant, n), App: "lu", Iterations: 30,
		Priority: l.rng.Intn(2), Tenant: tenant, InitialTopo: chain[first], Chain: chain,
	}
}

// running lists the running jobs of the kept core, tenant first when
// prefer is set.
func (l *lockstep) running(prefer string) []*scheduler.Job {
	var out, rest []*scheduler.Job
	for _, j := range l.kept.Jobs() {
		if j.State != scheduler.Running {
			continue
		}
		if prefer != "" && j.Spec.Tenant == prefer {
			out = append(out, j)
		} else {
			rest = append(rest, j)
		}
	}
	if len(out) > 0 {
		return out
	}
	return rest
}

func ids(js []*scheduler.Job) []int {
	out := make([]int, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

// step applies one op to both cores. Tenant c submits only in the first
// and last third of the run, and its running jobs are the first to finish
// in between, so it leaves the tenant level and comes back.
func (l *lockstep) step(op, ops int) {
	t := l.t
	l.now += l.rng.Float64() * 5
	cAway := op >= ops/3 && op < 2*ops/3
	var startedK, startedB []*scheduler.Job
	var errK, errB error
	switch r := l.rng.Intn(10); {
	case r < 3:
		tenants := []string{"a", "b", "c"}
		if cAway {
			tenants = tenants[:2]
		}
		s := l.spec(tenants[l.rng.Intn(len(tenants))], op)
		_, startedK, errK = l.kept.Submit(s, l.now)
		startedK = slices.Clone(startedK)
		_, startedB, errB = l.bare.Submit(s, l.now)
	case r < 7:
		run := l.running("")
		if len(run) == 0 {
			return
		}
		j := run[l.rng.Intn(len(run))]
		at := j.Topo // the kept core's job: its contact moves it
		iter := 100 / float64(at.Count()) * (1 + 0.2*l.rng.Float64())
		dk, ek := l.kept.Contact(j.ID, at, iter, 0, l.now)
		db, eb := l.bare.Contact(j.ID, at, iter, 0, l.now)
		if dk != db || dk.Text() != db.Text() || (ek == nil) != (eb == nil) {
			t.Fatalf("op %d: contact of job %d: kept table decided %+v %q (%v), fresh table %+v %q (%v)",
				op, j.ID, dk, dk.Text(), ek, db, db.Text(), eb)
		}
		if dk.Action != scheduler.ActionNone {
			l.granted = append(l.granted, j.ID)
		}
		return
	case r < 8:
		if len(l.granted) == 0 {
			return
		}
		k := l.rng.Intn(len(l.granted))
		id := l.granted[k]
		l.granted = slices.Delete(l.granted, k, k+1)
		red := l.rng.Float64()
		startedK, errK = l.kept.ResizeComplete(id, red, l.now)
		startedK = slices.Clone(startedK)
		startedB, errB = l.bare.ResizeComplete(id, red, l.now)
	default:
		prefer := ""
		if cAway {
			prefer = "c"
		}
		run := l.running(prefer)
		if len(run) == 0 {
			return
		}
		j := run[l.rng.Intn(len(run))]
		if i := slices.Index(l.granted, j.ID); i >= 0 {
			l.granted = slices.Delete(l.granted, i, i+1)
		}
		startedK, errK = l.kept.Finish(j.ID, l.now)
		startedK = slices.Clone(startedK)
		startedB, errB = l.bare.Finish(j.ID, l.now)
	}
	if (errK == nil) != (errB == nil) || !slices.Equal(ids(startedK), ids(startedB)) {
		t.Fatalf("op %d: kept table started %v (%v), fresh table %v (%v)", op, ids(startedK), errK, ids(startedB), errB)
	}
	if l.kept.Free() != l.bare.Free() || l.kept.QueueLen() != l.bare.QueueLen() {
		t.Fatalf("op %d: pools parted: free %d/%d, queued %d/%d", op,
			l.kept.Free(), l.bare.Free(), l.kept.QueueLen(), l.bare.QueueLen())
	}
}

// noting records whether tenant c was active in each snapshot.
type noting struct {
	*counted
	l *lockstep
}

func (n noting) Decide(snap scheduler.ClusterSnapshot) scheduler.Decision {
	if snap.Stamp() == (scheduler.Stamp{}) {
		n.l.t.Fatal("a core snapshot carries no stamp")
	}
	active := snap.Caller.Tenant == "c" || slices.ContainsFunc(snap.Tenants, func(u scheduler.TenantUsage) bool { return u.Tenant == "c" })
	for _, q := range snap.Queued {
		active = active || q.Tenant == "c"
	}
	n.l.cSeen = append(n.l.cSeen, active)
	return n.counted.Decide(snap)
}

// TestKeptTableMatchesFreshTable is the tenant table's differential test:
// over seeded op sequences, under no, equal and skewed weights, every
// decision of a FairShare that keeps its table across contacts — code,
// target and text — equals that of one that rebuilds it from each snapshot
// with its stamp cleared, while tenant c leaves the cluster and comes back.
func TestKeptTableMatchesFreshTable(t *testing.T) {
	weights := map[string]map[string]float64{
		"nil":    nil,
		"equal":  {"a": 1, "b": 1, "c": 1},
		"skewed": {"a": 5, "b": 1, "c": 0.5},
	}
	for _, name := range []string{"nil", "equal", "skewed"} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				l := &lockstep{t: t, rng: rand.New(rand.NewSource(seed))}
				l.cached = &counted{FairShare: New(weights[name])}
				l.kept = scheduler.NewCore(24, seed%2 == 0)
				l.kept.SetArbiter(noting{counted: l.cached, l: l})
				l.bare = scheduler.NewCore(24, seed%2 == 0)
				l.bare.SetArbiter(freshTable{New(weights[name])})
				const ops = 900
				for op := range ops {
					l.step(op, ops)
				}
				// c must have been active, then absent, then active again.
				phase := 0
				for _, seen := range l.cSeen {
					if seen == (phase%2 == 0) && phase < 3 {
						phase++
					}
				}
				if phase < 3 {
					t.Errorf("tenant c never left and came back over %d contacts", len(l.cSeen))
				}
				if l.cached.decides == 0 || l.cached.table.rebuilds >= l.cached.decides {
					t.Errorf("%d rebuilds over %d contacts", l.cached.table.rebuilds, l.cached.decides)
				}
				if l.cached.strayLookups != 0 {
					t.Errorf("%d contacts looked a tenant up by name outside a rebuild or fill", l.cached.strayLookups)
				}
			})
		}
	}
}

// TestTableRebuildsFallTenfold counts the tenant-table rebuilds on the
// allocation budget's 2 000-job fair-share mix: before the table was kept,
// every contact rebuilt it. It also counts the searches for a tenant by
// name, contacts' and start picks' alike: a contact searches only inside a
// rebuild or fill of the table, and none searches once its tenant's row is
// filed under its TenantID. Before the ids, every contact searched the
// table for its caller's tenant.
func TestTableRebuildsFallTenfold(t *testing.T) {
	params := perfmodel.SystemX()
	mix, err := workload.Generate(workload.GenConfig{
		Seed: 1, MaxProcs: 64, PriorityLevels: 3, Iterations: 10,
		Tenants: []workload.TenantSpec{
			{Name: "bursty", Jobs: 1200, MeanInterarrival: 0.5,
				Pattern: workload.Bursty, Burst: 10, BurstFactor: 100},
			{Name: "steady", Jobs: 400, MeanInterarrival: 1.5},
			{Name: "diurnal", Jobs: 400, MeanInterarrival: 1.5,
				Pattern: workload.Diurnal, Period: 3600},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := &counted{FairShare: New(nil)}
	fs.Inner.Predict = simcluster.Predictor(params, mix)
	if _, err := simcluster.New(1024, simcluster.Dynamic, params, mix).WithoutIterRecords().WithArbiter(fs).Run(); err != nil {
		t.Fatal(err)
	}
	rebuilds, lookups := fs.table.rebuilds, fs.table.lookups
	t.Logf("%d rebuilds, %d fills and %d tenant lookups over %d contacts", rebuilds, fs.table.fills, lookups, fs.decides)
	if fs.decides == 0 || 10*rebuilds > fs.decides {
		t.Errorf("%d tenant-table rebuilds over %d contacts, want at most a tenth", rebuilds, fs.decides)
	}
	if fs.strayLookups != 0 {
		t.Errorf("%d contacts looked a tenant up by name outside a rebuild or fill", fs.strayLookups)
	}
	if 100*lookups > fs.decides {
		t.Errorf("%d tenant lookups over %d contacts, want at most one in a hundred", lookups, fs.decides)
	}
}
