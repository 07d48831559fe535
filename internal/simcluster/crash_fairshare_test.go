package simcluster_test

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/durability"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/scheduler/fairshare"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// tenants lists the distinct tenants appearing in the result, sorted by
// name, so the test can iterate per-tenant metrics deterministically.
func tenants(r *simcluster.Result) []string {
	seen := make(map[string]bool)
	var out []string
	for _, j := range r.Jobs {
		if !seen[j.Tenant] {
			seen[j.Tenant] = true
			out = append(out, j.Tenant)
		}
	}
	sort.Strings(out)
	return out
}

// TestCrashRestartFairsharePerTenant kills a fair-share scheduler mid-run
// on a three-tenant mix and recovers it from its WAL: tenant tags ride the
// journaled specs, so the recovered arbiter must reproduce the identical
// per-tenant allocation history — same per-job schedule, same allocation
// trace, same per-tenant queue-wait metrics — as an uninterrupted run.
func TestCrashRestartFairsharePerTenant(t *testing.T) {
	params := perfmodel.SystemX()
	mix, err := workload.Generate(workload.GenConfig{
		Seed: 5, MaxProcs: workload.ClusterProcs,
		Tenants: []workload.TenantSpec{
			{Name: "a", Jobs: 8, MeanInterarrival: 120, Pattern: workload.Bursty, Burst: 4},
			{Name: "b", Jobs: 6, MeanInterarrival: 200},
			{Name: "c", Jobs: 6, MeanInterarrival: 200, Pattern: workload.Diurnal, Period: 3600},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The arbiter is configuration, not journaled state: both the original
	// and the recovered core install the same fair-share arbitration, as
	// reshaped's -arbiter flag does across restarts.
	arb := func() scheduler.Arbiter {
		fs := fairshare.New(map[string]float64{"a": 1, "b": 2, "c": 2})
		fs.Inner.Predict = simcluster.Predictor(params, mix)
		return fs
	}

	baseCore := scheduler.NewCore(workload.ClusterProcs, true)
	baseCore.SetArbiter(arb())
	baseline, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, mix).
		WithCore(baseCore).Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name          string
		snapshotEvery uint64
	}{
		// Genesis replay regenerates the full allocation trace; the
		// snapshot variant additionally exercises tenant tags through the
		// RSHSNAP3 snapshot codec.
		{"replay-only", 0},
		{"with-snapshots", 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			core := scheduler.NewCore(workload.ClusterProcs, true)
			core.SetArbiter(arb())
			st, _, err := durability.Open(dir, durability.Options{
				Sync:          durability.SyncAlways,
				SnapshotEvery: tc.snapshotEvery,
				Capture:       func() (*scheduler.CoreState, uint64) { return core.PersistState(), 0 },
			})
			if err != nil {
				t.Fatal(err)
			}
			core.SetJournal(st.Append)

			restarted := false
			res, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, mix).
				WithCore(core).
				WithCrashRestart(600, func(old *scheduler.Core) (*scheduler.Core, error) {
					_ = st.Close()
					var recovered *scheduler.Core
					st2, rec, err := durability.Open(dir, durability.Options{
						Sync:          durability.SyncAlways,
						SnapshotEvery: tc.snapshotEvery,
						Capture:       func() (*scheduler.CoreState, uint64) { return recovered.PersistState(), 0 },
					})
					if err != nil {
						return nil, err
					}
					recovered, info, err := rec.Restore(func(cs *scheduler.CoreState) (*scheduler.Core, error) {
						var c *scheduler.Core
						if cs == nil {
							c = scheduler.NewCore(workload.ClusterProcs, true)
						} else {
							var err error
							if c, err = scheduler.NewCoreFromState(cs); err != nil {
								return nil, err
							}
						}
						c.SetArbiter(arb())
						return c, nil
					})
					if err != nil {
						return nil, err
					}
					if !info.Recovered {
						return nil, errors.New("nothing recovered from a mid-run WAL")
					}
					recovered.SetJournal(st2.Append)
					st = st2
					restarted = true
					return recovered, nil
				}).
				Run()
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
			if !restarted {
				t.Fatal("crash point never fired")
			}

			if len(res.Jobs) != len(baseline.Jobs) {
				t.Fatalf("job count diverged: %d vs baseline %d", len(res.Jobs), len(baseline.Jobs))
			}
			for i, j := range res.Jobs {
				bj := baseline.Jobs[i]
				if j.Name != bj.Name || j.Tenant != bj.Tenant || j.Start != bj.Start || j.End != bj.End {
					t.Errorf("job %q (tenant %q) diverged: start %.3f/%.3f end %.3f/%.3f",
						j.Name, j.Tenant, j.Start, bj.Start, j.End, bj.End)
				}
			}
			if tc.snapshotEvery == 0 {
				// Genesis replay regenerates the full allocation trace.
				if !reflect.DeepEqual(res.Events, baseline.Events) {
					t.Fatalf("allocation trace diverged: %d events vs %d", len(res.Events), len(baseline.Events))
				}
			}
			for _, tenant := range tenants(baseline) {
				if res.TenantMeanQueueWait(tenant) != baseline.TenantMeanQueueWait(tenant) ||
					res.TenantQueueWaitP99(tenant) != baseline.TenantQueueWaitP99(tenant) {
					t.Errorf("tenant %q per-tenant waits diverged after recovery", tenant)
				}
			}
		})
	}
}
