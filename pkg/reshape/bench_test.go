package reshape_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/resize"
	"repro/pkg/reshape"
)

type noopApp struct{}

func (noopApp) Init(rc *reshape.Context) error    { return nil }
func (noopApp) Iterate(rc *reshape.Context) error { return nil }

// BenchmarkRunOverhead measures the SDK's per-iteration cost against the
// hand-rolled worker loop it replaced: a no-op app on one rank with a null
// scheduler, so everything timed is loop machinery (timing, logging,
// resize-point bookkeeping, the scheduler contact). ns/op is the cost of
// one outer iteration. Numbers are recorded in DESIGN.md's SDK section.
func BenchmarkRunOverhead(b *testing.B) {
	b.Run("app", func(b *testing.B) {
		if _, err := reshape.Run(context.Background(), noopApp{},
			reshape.WithMaxIterations(b.N)); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("worker", func(b *testing.B) {
		err := mpi.Run(1, func(c *mpi.Comm) error {
			s, err := resize.NewSession(resize.NullClient{}, 0, c, grid.Topology{Rows: 1, Cols: 1}, nil)
			if err != nil {
				return err
			}
			for s.Iter() < b.N {
				t0 := time.Now()
				elapsed := time.Since(t0).Seconds()
				st, err := s.ResizeAveraged(s.Log(elapsed))
				if err != nil {
					return err
				}
				if st == resize.Retired {
					return nil
				}
			}
			return s.Done()
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}
