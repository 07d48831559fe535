// Command reshape-submit submits a job to a reshaped daemon (the paper's
// command-line submission process), queries scheduler status, or streams
// the cluster's job events. It speaks rpc/v2 (one multiplexed connection,
// server-push watches) via the reshape client.
//
// Usage:
//
//	reshape-submit -addr 127.0.0.1:7077 -name mylu -app lu -n 64 -nb 4 \
//	    -iters 10 -rows 1 -cols 2 -max 16 -wait
//	reshape-submit -addr 127.0.0.1:7077 -name urgent -app lu -n 64 -priority 5
//	reshape-submit -addr 127.0.0.1:7077 -status
//	reshape-submit -addr 127.0.0.1:7077 -watch
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/grid"
	"repro/internal/reshape"
	"repro/internal/scheduler"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "daemon address")
	status := flag.Bool("status", false, "print scheduler status and exit")
	watch := flag.Bool("watch", false, "stream job events until interrupted")
	timeout := flag.Duration("timeout", 0, "overall deadline for the command (0 = none)")
	name := flag.String("name", "job", "job name")
	app := flag.String("app", "lu", "application: lu, mm, jacobi, fft, mw, cg")
	n := flag.Int("n", 64, "problem size")
	nb := flag.Int("nb", 4, "block size")
	iters := flag.Int("iters", 10, "outer iterations")
	rows := flag.Int("rows", 1, "initial grid rows")
	cols := flag.Int("cols", 2, "initial grid columns")
	maxProcs := flag.Int("max", 16, "largest processor count in the configuration chain")
	priority := flag.Int("priority", 0, "scheduler priority: higher starts sooner; waiting jobs age upward under the arbiter, so low priorities cannot starve")
	tenant := flag.String("tenant", "", "tenant identity: tags submitted jobs for fair-share scheduling and attributes every request to the tenant's admission quota")
	wait := flag.Bool("wait", false, "block until the job completes")
	flag.Parse()

	// A job that has no configuration to start on is refused before the
	// daemon is dialed.
	initial, chain, err := jobChain(*app, *n, grid.Topology{Rows: *rows, Cols: *cols}, *maxProcs)
	if err != nil && !*status && !*watch {
		fmt.Fprintln(os.Stderr, "reshape-submit:", err)
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cl, err := reshape.Dial(*addr, reshape.WithDialTimeout(5*time.Second), reshape.WithTenant(*tenant))
	if err != nil {
		fail(err)
	}
	defer cl.Close()

	if *status {
		printStatus(ctx, cl)
		return
	}
	if *watch {
		streamEvents(ctx, cl)
		return
	}

	id, err := cl.Submit(ctx, scheduler.JobSpec{
		Name:        *name,
		App:         *app,
		ProblemSize: *n,
		BlockSize:   *nb,
		Iterations:  *iters,
		Priority:    *priority,
		InitialTopo: initial,
		Chain:       chain,
	})
	if err != nil {
		fail(err)
	}
	who := ""
	if *tenant != "" {
		who = fmt.Sprintf(", tenant %s", *tenant)
	}
	fmt.Printf("submitted job %d (%s, %s, n=%d, priority %d%s) starting on %v\n",
		id, *name, *app, *n, *priority, who, initial)
	if *wait {
		// Follow the job's own event stream while waiting: the watch
		// streams on a connection of its own beside the Wait call's.
		sub, err := cl.Watch(ctx, id)
		if err != nil {
			fail(err)
		}
		done := make(chan error, 1)
		go func() { done <- cl.Wait(ctx, id) }()
		for {
			select {
			case ev, ok := <-sub.C:
				if ok {
					printEvent(ev)
				}
			case err := <-done:
				sub.Cancel()
				if err != nil {
					fail(err)
				}
				fmt.Printf("job %d finished\n", id)
				return
			}
		}
	}
}

// jobChain returns the configuration a job starts on and its chain up to
// maxProcs processors. lu and mm grow along their grid; any other app runs
// on row counts: the problem size's divisors from the initial count on, or
// (mw, or no such divisor) every second count. A 1-D job whose initial
// count exceeds maxProcs has no chain and is refused.
func jobChain(app string, n int, initial grid.Topology, maxProcs int) (grid.Topology, []grid.Topology, error) {
	if app == "lu" || app == "mm" {
		return initial, grid.GrowthChain(initial, n, maxProcs), nil
	}
	var chain []grid.Topology
	if app != "mw" {
		for _, p := range grid.Chain1D(n, initial.Count(), maxProcs) {
			chain = append(chain, grid.Row1D(p))
		}
	}
	if len(chain) == 0 {
		for p := initial.Count(); p <= maxProcs; p += 2 {
			chain = append(chain, grid.Row1D(p))
		}
	}
	if len(chain) == 0 {
		return initial, nil, fmt.Errorf("-app %s starts on %d processors, more than -max %d", app, initial.Count(), maxProcs)
	}
	return chain[0], chain, nil
}

func printStatus(ctx context.Context, cl *reshape.Client) {
	st, err := cl.Status(ctx)
	if err != nil {
		fail(err)
	}
	fmt.Printf("processors: %d total, %d busy, %d free; %d job(s) queued\n",
		st.Total, st.Busy, st.Free, st.QueueLen)
	for _, u := range st.Tenants {
		fmt.Printf("tenant %-12s running=%-3d queued=%-3d procs=%d\n",
			u.Tenant, u.Running, u.Queued, u.Procs)
	}
	for _, j := range st.Jobs {
		who := ""
		if j.Tenant != "" {
			who = " tenant=" + j.Tenant
		}
		fmt.Printf("job %d %-12s %-8s %-8s prio=%-2d topo=%-7v procs=%-3d submit=%.1f start=%.1f end=%.1f%s\n",
			j.ID, j.Name, j.App, j.State, j.Priority, j.Topo, j.Procs, j.Submit, j.Start, j.End, who)
	}
}

func streamEvents(ctx context.Context, cl *reshape.Client) {
	sub, err := cl.Watch(ctx, scheduler.AllJobs)
	if err != nil {
		fail(err)
	}
	defer sub.Cancel()
	for ev := range sub.C {
		printEvent(ev)
	}
	if err := ctx.Err(); err != nil && err != context.Canceled {
		fail(err)
	}
}

func printEvent(ev scheduler.JobEvent) {
	fmt.Printf("t=%8.3fs  %-7s job %d %-12s topo=%-7v busy=%d free=%d\n",
		ev.Time, ev.Kind, ev.JobID, ev.Job, ev.Topo, ev.Busy, ev.Free)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reshape-submit:", err)
	os.Exit(1)
}
