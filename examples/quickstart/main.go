// Quickstart: a minimal resizable application on the public SDK
// (pkg/reshape), run under an in-process ReSHAPE scheduler that expands it
// across an idle pool. This is the README's quickstart program.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/apps"
	"repro/internal/grid"
	"repro/internal/scheduler"
	"repro/pkg/reshape"
)

// demo is a complete resizable application: Init registers one distributed
// matrix, Iterate factors a fresh copy of it (the paper's LU workload).
// Everything else — the iterate/log/resize loop, scheduler contacts, data
// redistribution, re-entry of newly spawned ranks — is reshape.Run's job.
type demo struct{}

func (demo) Init(rc *reshape.Context) error {
	a := rc.RegisterArray("A", 32, 32, 4, 4)
	rc.FillArray(a, func(i, j int) float64 {
		if i == j {
			return 32 + 1/float64(1+i)
		}
		return 1 / float64(1+abs(i-j))
	})
	return nil
}

func (demo) Iterate(rc *reshape.Context) error {
	a, _ := rc.Array("A")
	work := append([]float64(nil), a.Data...)
	return apps.DistLU(rc.Grid(), a.LayoutFor(rc.Topo()), work)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func main() {
	const procs = 8

	// The scheduler server owns the processor pool. Its JobStarter runs
	// each granted job through the SDK on a fresh set of ranks.
	var srv *scheduler.Server
	srv = scheduler.NewServer(procs, true, func(j *scheduler.Job) {
		_, err := reshape.Run(context.Background(), demo{},
			reshape.WithScheduler(srv),
			reshape.WithJobID(j.ID),
			reshape.WithTopology(j.Topo),
			reshape.WithMaxIterations(6),
			reshape.WithLogger(func(ev reshape.Event) {
				switch ev.Kind {
				case reshape.EventIterate:
					fmt.Printf("  iter %d on %-5v  %.4fs\n", ev.Iter, ev.Topo, ev.Seconds)
				case reshape.EventResize:
					fmt.Printf("  resized %v -> %v (%.4fs redistribution)\n", ev.From, ev.Topo, ev.Seconds)
				}
			}))
		if err != nil {
			log.Fatalf("job failed: %v", err)
		}
	})

	// Submit a 32x32 LU job starting on 1x2 processors; its configuration
	// chain allows growth up to the full pool. Priority orders the wait
	// queue and feeds cluster-wide arbitration.
	ctx := context.Background()
	start := grid.Topology{Rows: 1, Cols: 2}
	jobID, err := srv.Submit(ctx, scheduler.JobSpec{
		Name:        "quickstart-lu",
		App:         "lu",
		ProblemSize: 32,
		BlockSize:   4,
		Iterations:  6,
		InitialTopo: start,
		Chain:       grid.GrowthChain(start, 32, procs),
		Priority:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Wait(ctx, jobID); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nallocation history:")
	for _, e := range srv.Core().Events {
		fmt.Printf("  t=%7.3fs %-7s %-14s topo=%-5v busy=%d/%d\n",
			e.Time, e.Kind, e.Job, e.Topo, e.Busy, procs)
	}
	j, _ := srv.Core().Job(jobID)
	fmt.Println("\nconfigurations visited (the Performance Profiler's record):")
	for _, v := range j.Profile.Visits {
		fmt.Printf("  %-5v %2d iterations, last iteration %.4fs\n",
			v.Topo, len(v.IterTimes), v.Last())
	}
	fmt.Printf("\njob turnaround: %.3fs\n", j.EndTime-j.SubmitTime)
}
