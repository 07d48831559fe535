// Workload simulation: regenerate the paper's headline result — the
// static-vs-dynamic comparison of workloads W1 and W2 (Figures 4-5, Tables
// 4-5) on a virtual 36-processor System X.
//
//	go run ./examples/workload-sim
//
// With -live, the same kind of job mix runs for real instead: the example
// starts an in-process reshaped daemon, submits a scaled-down mix over the
// rpc/v2 wire protocol (reshape client), and renders the allocation
// history live from the streaming Watch subscription — the v2 replacement
// for polling status or parking a connection per blocking wait.
//
//	go run ./examples/workload-sim -live
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/perfmodel"
	"repro/internal/reshape"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

func main() {
	live := flag.Bool("live", false, "run a scaled-down mix on a real daemon over rpc/v2 instead of the virtual-time simulation")
	procs := flag.Int("procs", 8, "processor pool size for -live")
	flag.Parse()

	if *live {
		runLive(*procs)
		return
	}

	params := perfmodel.SystemX()

	w1, err := experiments.RunW1(params)
	if err != nil {
		log.Fatal(err)
	}
	experiments.PrintTurnaroundTable(os.Stdout, "Table 4 (workload 1)", w1)

	fmt.Println("\nworkload 1 dynamic allocation history (Figure 4(a)):")
	for _, name := range []string{"LU", "MM", "Master-Worker", "Jacobi", "2D FFT"} {
		fmt.Printf("  %-14s", name)
		for _, pt := range w1.Dynamic.AllocSeries(name) {
			fmt.Printf(" (t=%.0fs, %0.f procs)", pt[0], pt[1])
		}
		fmt.Println()
	}
	fmt.Println("\nas a Gantt chart (glyph intensity = processors held):")
	fmt.Print(gantt(w1.Dynamic.Events, 72))

	fmt.Println()
	w2, err := experiments.RunW2(params)
	if err != nil {
		log.Fatal(err)
	}
	experiments.PrintTurnaroundTable(os.Stdout, "Table 5 (workload 2)", w2)

	fmt.Printf("\npaper anchors: W1 utilization 39.7%% -> 70.7%%; ")
	fmt.Printf("this run: %.1f%% -> %.1f%%\n", 100*w1.StaticUtilization, 100*w1.DynamicUtilization)
}

// runLive drives a real scheduler daemon through the v2 wire protocol: the
// job mix below mirrors W1's shape (two dense solvers plus lighter 1-D
// jobs) at toy problem sizes, so it finishes in seconds on goroutine
// "processors" while exercising the full remote path — submit, resize
// contacts from the apps' own resize points, and the streaming watch.
func runLive(procs int) {
	// The starter closure runs on server goroutines once jobs are
	// submitted; the client is dialed only after the server is up, so it
	// is published through an atomic pointer.
	var clientp atomic.Pointer[reshape.Client]
	sched := scheduler.NewServer(procs, true, func(j *scheduler.Job) {
		client := clientp.Load()
		// The launched ranks talk to the scheduler over the wire client,
		// exactly as they would against a remote daemon.
		if err := apps.Launch(client, j.ID, j.Topo, apps.SpecConfig(j.Spec)); err != nil {
			log.Printf("job %d failed: %v", j.ID, err)
			_ = client.JobError(context.Background(), j.ID)
		}
	})
	srv, err := rpc.Serve("127.0.0.1:0", sched, rpc.WithLogf(log.Printf))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	client, err := reshape.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	clientp.Store(client)

	ctx := context.Background()
	sub, err := client.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Cancel()
	events := make(chan struct{})
	go func() {
		defer close(events)
		for ev := range sub.C {
			fmt.Printf("  t=%7.3fs %-7s %-10s topo=%-6v busy=%d/%d\n",
				ev.Time, ev.Kind, ev.Job, ev.Topo, ev.Busy, ev.Busy+ev.Free)
		}
	}()

	start12 := grid.Topology{Rows: 1, Cols: 2}
	mix := []scheduler.JobSpec{
		{Name: "lu", App: "lu", ProblemSize: 24, BlockSize: 2, Iterations: 4,
			InitialTopo: start12, Chain: grid.GrowthChain(start12, 24, procs)},
		{Name: "mm", App: "mm", ProblemSize: 16, BlockSize: 2, Iterations: 4,
			InitialTopo: start12, Chain: grid.GrowthChain(start12, 16, procs)},
		{Name: "jacobi", App: "jacobi", ProblemSize: 32, Iterations: 4,
			InitialTopo: grid.Row1D(2), Chain: []grid.Topology{grid.Row1D(2), grid.Row1D(4)}},
	}
	fmt.Printf("live mix on %d processors over rpc/v2 (%s):\n", procs, srv.Addr())
	ids := make([]int, 0, len(mix))
	for _, spec := range mix {
		id, err := client.Submit(ctx, spec)
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := client.Wait(ctx, id); err != nil {
			log.Fatal(err)
		}
	}

	st, err := client.Status(ctx)
	if err != nil {
		log.Fatal(err)
	}
	sub.Cancel()
	<-events
	fmt.Printf("\nfinal status: %d/%d processors free, %d jobs done\n",
		st.Free, st.Total, len(st.Jobs))
	stats := srv.Stats()
	fmt.Printf("server stats: %d conn(s), %d requests, %d watch(es), %d dials by client\n",
		stats.Conns, stats.Requests, stats.Watches, client.Dials())
}
