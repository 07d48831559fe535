// Porting a custom application to ReSHAPE with the public SDK: a
// distributed power-iteration solver written against the App lifecycle.
// The pattern mirrors §3.2.3 of the paper — register the global arrays and
// replicated state in Init, do one outer iteration in Iterate — but the
// loop, resize points, redistribution and spawned-rank re-entry that the
// pre-SDK port hand-rolled in a worker closure now live in reshape.Run.
// The optional OnResize hook observes every topology change, including the
// moment a newly spawned rank joins.
//
//	go run ./examples/custom-app
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/scheduler"
	"repro/pkg/reshape"
)

const (
	n          = 24 // global matrix dimension
	nb         = 2  // block size
	iterations = 8
)

// power is the resizable application: a symmetric matrix A distributed
// block-cyclically and a replicated iterate vector x.
type power struct{}

func (power) Init(rc *reshape.Context) error {
	a := rc.RegisterArray("A", n, n, nb, nb)
	rc.FillArray(a, func(i, j int) float64 {
		v := 1.0 / (1.0 + math.Abs(float64(i-j)))
		if i == j {
			v += 2
		}
		return v
	})
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(n)
	}
	rc.SetReplicated("x", x)
	return nil
}

// Iterate performs one power step: y = A*x (distributed), normalize,
// x <- y. The eigenvalue estimate ||y|| is printed on rank 0.
func (power) Iterate(rc *reshape.Context) error {
	a, ok := rc.Array("A")
	if !ok {
		return fmt.Errorf("array A missing")
	}
	x := rc.Replicated("x")
	l := a.LayoutFor(rc.Topo())
	pr, pc := l.Coords(rc.Rank())
	rows, cols := l.LocalRows(pr), l.LocalCols(pc)

	// Local partial products against the replicated vector.
	partial := make([]float64, n)
	for li := 0; li < rows; li++ {
		for lj := 0; lj < cols; lj++ {
			gi, gj := l.LocalToGlobal(pr, pc, li, lj)
			partial[gi] += a.Data[li*cols+lj] * x[gj]
		}
	}
	y := rc.Comm().Allreduce(partial, mpi.SumOp)
	norm := 0.0
	for _, v := range y {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for i := range y {
		x[i] = y[i] / norm
	}
	if rc.Rank() == 0 {
		fmt.Printf("  iter %d on %-5v  lambda=%.4f\n", rc.Iter()+1, rc.Topo(), norm)
	}
	return nil
}

// OnResize is the optional lifecycle hook: every rank is notified after a
// topology change, and spawned ranks get a Joined notification (their
// replicated x arrived through the resize library's bootstrap broadcast).
func (power) OnResize(rc *reshape.Context, ev reshape.ResizeEvent) error {
	if ev.Kind == reshape.Joined || rc.Rank() != 0 {
		return nil
	}
	fmt.Printf("  %s %v -> %v after iteration %d (%.4fs redistribution)\n",
		ev.Kind, ev.From, ev.To, ev.Iter, ev.Seconds)
	return nil
}

func main() {
	const procs = 6
	var srv *scheduler.Server
	srv = scheduler.NewServer(procs, true, func(j *scheduler.Job) {
		_, err := reshape.Run(context.Background(), power{},
			reshape.WithScheduler(srv),
			reshape.WithJobID(j.ID),
			reshape.WithTopology(j.Topo),
			reshape.WithMaxIterations(iterations))
		if err != nil {
			log.Fatalf("job failed: %v", err)
		}
	})

	ctx := context.Background()
	start := grid.Topology{Rows: 1, Cols: 2}
	jobID, err := srv.Submit(ctx, scheduler.JobSpec{
		Name: "power-iteration", App: "custom", ProblemSize: n, Iterations: iterations,
		InitialTopo: start,
		Chain:       grid.GrowthChain(start, n, procs),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("power iteration on a %dx%d matrix, starting on %v of %d processors:\n",
		n, n, start, procs)
	if err := srv.Wait(ctx, jobID); err != nil {
		log.Fatal(err)
	}
	fmt.Println("done; every topology change redistributed A and re-replicated x.")
}
