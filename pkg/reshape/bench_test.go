package reshape

import (
	"context"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/resize"
)

// BenchmarkRunOverhead measures the SDK's per-iteration cost against a
// bare loop over the same Context stages, the worker loop apps hand-rolled
// before the SDK: a no-op app on one rank with a null scheduler, so
// everything timed is loop machinery (timing, logging, resize-point
// bookkeeping, the scheduler contact). ns/op is the cost of one outer
// iteration. Numbers are recorded in DESIGN.md's SDK section.
func BenchmarkRunOverhead(b *testing.B) {
	b.Run("app", func(b *testing.B) {
		if _, err := Run(context.Background(), testApp{}, WithMaxIterations(b.N)); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("worker", func(b *testing.B) {
		err := mpi.Run(1, func(c *mpi.Comm) error {
			rc, err := newRank(resize.NullClient{}, 0, c, grid.Topology{Rows: 1, Cols: 1})
			if err != nil {
				return err
			}
			for rc.iter < b.N {
				t0 := time.Now()
				avg := rc.logIteration(time.Since(t0).Seconds())
				rc.iter++
				retired, err := rc.resizePoint(avg)
				if err != nil || retired {
					return err
				}
			}
			return rc.done()
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkRedistribute/session-oscillate drives a job's ranks back and
// forth between two grids with three 240x240 arrays (the root package's
// BenchmarkRedistribute cases): pieces and wire buffers recycled through
// the one float arena should leave B/op far below the bytes moved.
func BenchmarkRedistribute(b *testing.B) {
	const m, nb, nArrays = 240, 8, 3
	b.Run("session-oscillate", func(b *testing.B) {
		small, large := grid.Topology{Rows: 2, Cols: 2}, grid.Topology{Rows: 3, Cols: 3}
		cycle := func(rc *Context) error {
			if err := rc.redistribute(rc.comm, small, large); err != nil {
				return err
			}
			return rc.redistribute(rc.comm, large, small)
		}
		// One op is a full cycle: every array crosses the wire twice.
		b.SetBytes(int64(2 * nArrays * m * m * 8))
		b.ReportAllocs()
		err := mpi.Run(large.Count(), func(c *mpi.Comm) error {
			rc, err := newRank(resize.NullClient{}, 1, c, small)
			if err != nil {
				return err
			}
			for a := 0; a < nArrays; a++ {
				arr := rc.RegisterArray(string(rune('A'+a)), m, m, nb, nb)
				if c.Rank() < small.Count() {
					arr.Data = make([]float64, arr.LayoutFor(small).LocalSize(c.Rank()))
				}
			}
			// Warm-up: plans cached, pieces and wire buffers in the arena.
			for i := 0; i < 3; i++ {
				if err := cycle(rc); err != nil {
					return err
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if err := cycle(rc); err != nil {
					return err
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				b.StopTimer()
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}
