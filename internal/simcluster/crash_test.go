package simcluster_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/durability"
	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
	"repro/internal/workload"
)

// TestCrashRestartMatchesBaseline kills the scheduler mid-W1 and recovers
// it from its WAL: the completed run must be indistinguishable from an
// uninterrupted baseline — same per-job start/end times, same makespan,
// same utilization, and (because genesis replay regenerates the trace) the
// same allocation-event history.
func TestCrashRestartMatchesBaseline(t *testing.T) {
	params := perfmodel.SystemX()

	baseline, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, workload.W1()).Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name          string
		crashAt       float64
		snapshotEvery uint64
	}{
		{"early-replay-only", 300, 0},
		{"midrun-with-snapshots", 700, 20},
		{"late-with-snapshots", 1500, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			core := scheduler.NewCore(workload.ClusterProcs, true)
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
			res, err := simcluster.New(workload.ClusterProcs, simcluster.Dynamic, params, workload.W1()).
				WithCore(core).
				WithCrashRestart(tc.crashAt, func(old *scheduler.Core) (*scheduler.Core, error) {
					// The dying daemon gets no goodbye: abandon the old store
					// un-flushed (SyncAlways made every acked op durable) and
					// recover purely from disk.
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
						if cs == nil {
							return scheduler.NewCore(workload.ClusterProcs, true), nil
						}
						return scheduler.NewCoreFromState(cs)
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
				if j.Name != bj.Name || j.Start != bj.Start || j.End != bj.End {
					t.Errorf("job %q diverged: start %.3f/%.3f end %.3f/%.3f",
						j.Name, j.Start, bj.Start, j.End, bj.End)
				}
			}
			if res.Makespan != baseline.Makespan {
				t.Fatalf("makespan diverged: %.6f vs %.6f", res.Makespan, baseline.Makespan)
			}
			if math.Abs(res.Utilization-baseline.Utilization) > 1e-12 {
				t.Fatalf("utilization diverged: %.12f vs %.12f", res.Utilization, baseline.Utilization)
			}
			if tc.snapshotEvery == 0 {
				// Genesis replay regenerates the full allocation trace.
				if got, want := collected(res), collected(baseline); !slices.Equal(got, want) {
					t.Fatalf("allocation trace diverged: %d events vs %d", len(got), len(want))
				}
			}
		})
	}
}
