package durability

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// benchQueuedJobs is the recovery-scale target: a daemon killed with 100k
// jobs on the books must come back.
const benchQueuedJobs = 100_000

// seedBenchLog journals benchQueuedJobs submissions (nearly all of which
// queue: the pool holds 36 processors and every job wants 4) into dir,
// optionally finishing with one snapshot so recovery is snapshot-dominated
// instead of replay-dominated.
func seedBenchLog(b *testing.B, dir string, snapshot bool) {
	b.Helper()
	core := scheduler.NewCore(workload.ClusterProcs, true)
	core.DisableTrace() // a 100k-event trace isn't what's being measured
	st, _, err := Open(dir, Options{
		Sync:    SyncNone,
		Capture: func() (*scheduler.CoreState, uint64) { return core.PersistState(), 0 },
	})
	if err != nil {
		b.Fatal(err)
	}
	core.SetJournal(st.Append)
	chain := []grid.Topology{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 4}, {Rows: 4, Cols: 4}}
	for i := 0; i < benchQueuedJobs; i++ {
		spec := scheduler.JobSpec{
			Name: fmt.Sprintf("job-%d", i), App: "jacobi", ProblemSize: 8000,
			Iterations: 10, InitialTopo: chain[0], Chain: chain,
		}
		if _, _, err := core.Submit(spec, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if snapshot {
		if err := st.Snapshot(float64(benchQueuedJobs)); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}

// benchRecover measures one full recovery — Open (scan, read, decode) plus
// Restore (rebuild/replay) — from the seeded directory.
func benchRecover(b *testing.B, dir string) {
	for i := 0; i < b.N; i++ {
		st, rec, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		core, info, err := rec.Restore(func(cs *scheduler.CoreState) (*scheduler.Core, error) {
			if cs == nil {
				c := scheduler.NewCore(workload.ClusterProcs, true)
				c.DisableTrace()
				return c, nil
			}
			return scheduler.NewCoreFromState(cs)
		})
		if err != nil {
			b.Fatal(err)
		}
		if info.Jobs != benchQueuedJobs {
			b.Fatalf("recovered %d jobs, want %d", info.Jobs, benchQueuedJobs)
		}
		if core.QueueLen() == 0 {
			b.Fatal("recovered an empty queue")
		}
		st.Close()
	}
	b.ReportMetric(float64(benchQueuedJobs)/1000, "kjobs")
}

// BenchmarkRecovery measures cold-start recovery of a scheduler with 100k
// queued jobs, both replay-only (pure log, the worst case) and
// snapshot-dominated (the steady-state case with a sane cadence).
func BenchmarkRecovery(b *testing.B) {
	b.Run("replay-100k", func(b *testing.B) {
		dir := b.TempDir()
		seedBenchLog(b, dir, false)
		b.ResetTimer()
		benchRecover(b, dir)
	})
	b.Run("snapshot-100k", func(b *testing.B) {
		dir := b.TempDir()
		seedBenchLog(b, dir, true)
		b.ResetTimer()
		benchRecover(b, dir)
	})
}

// BenchmarkGroupCommit measures the durable write path under a Server on a
// SyncAlways store with real fsyncs: each committer is a running job making
// resize-point contacts, one journaled op each. syncs/op is 1 for a lone
// committer and falls as concurrent committers share flushes; ops/s rises by
// about the same factor until the server lock, not the disk, is the limit.
func BenchmarkGroupCommit(b *testing.B) {
	for _, committers := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("%d-committers", committers), func(b *testing.B) {
			ctx := context.Background()
			p := serve(b, b.TempDir(), 2*committers, Options{Sync: SyncAlways, SnapshotEvery: 10000}, nil, nil)
			ids := make([]int, committers)
			for i := range ids {
				id, err := p.srv.Submit(ctx, pairSpec(fmt.Sprintf("job-%d", i)))
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = id
			}
			before := p.st.Stats()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, id := range ids {
				n := b.N / committers
				if i < b.N%committers {
					n++
				}
				wg.Add(1)
				go func(id, n int) {
					defer wg.Done()
					for k := 0; k < n; k++ {
						if _, err := p.srv.Contact(ctx, id, pairTopo, 2.0, 0); err != nil {
							b.Error(err)
							return
						}
					}
				}(id, n)
			}
			wg.Wait()
			b.StopTimer()
			after := p.st.Stats()
			if ops := after.Appends - before.Appends; ops > 0 {
				b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
				b.ReportMetric(float64(after.Syncs-before.Syncs)/float64(ops), "syncs/op")
			}
			if err := p.st.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
