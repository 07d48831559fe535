package rpc_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/reshape"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// benchServer starts a daemon with one running job whose chain has a
// single configuration, so every Contact is a cheap "no change" decision —
// the op measures transport cost, not policy work.
func benchServer(b *testing.B) (addr string, jobID int, topo grid.Topology, closefn func()) {
	b.Helper()
	sched := scheduler.NewServer(64, true, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		b.Fatal(err)
	}
	topo = grid.Row1D(2)
	jobID, err = sched.Submit(context.Background(), scheduler.JobSpec{
		Name: "bench", App: "mw", Iterations: 1 << 30,
		InitialTopo: topo, Chain: []grid.Topology{topo},
	})
	if err != nil {
		b.Fatal(err)
	}
	return srv.Addr(), jobID, topo, func() { srv.Close() }
}

// BenchmarkRPCThroughput measures the wire protocol on localhost: many
// concurrent operations pipelined over one persistent connection. The
// conns/op metric counts TCP connections consumed per operation.
func BenchmarkRPCThroughput(b *testing.B) {
	b.ReportAllocs()
	const inflight = 64 // concurrent pipelined requests

	b.Run("v2-pipelined", func(b *testing.B) {
		addr, jobID, topo, closefn := benchServer(b)
		defer closefn()
		cl, err := reshape.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		ctx := context.Background()
		b.ResetTimer()
		var wg sync.WaitGroup
		work := make(chan struct{})
		var firstErr error
		var errOnce sync.Once
		for w := 0; w < inflight; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range work {
					if _, err := cl.Contact(ctx, jobID, topo, 0.01, 0); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
				}
			}()
		}
		for i := 0; i < b.N; i++ {
			work <- struct{}{}
		}
		close(work)
		wg.Wait()
		b.StopTimer()
		if firstErr != nil {
			b.Fatal(firstErr)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		b.ReportMetric(float64(cl.Dials())/float64(b.N), "conns/op")
	})
}
