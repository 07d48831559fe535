package rpc_test

import (
	"context"
	"testing"

	"repro/internal/grid"
	"repro/internal/reshape"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

// TestV2ContactRoundTripAllocs pins the allocation budget of one unary
// round trip: reshape.Client.Contact → rpc/v2 frame → rpc.Server →
// scheduler.Server and back, on loopback, counted across both ends. In
// steady state it allocates nothing (the budget leaves room for a request
// map rehashing now and then); a context, pending request, channel, frame,
// goroutine or interned string allocated per call shows up here.
func TestV2ContactRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	sched := scheduler.NewServer(8, true, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	topo := grid.Row1D(2)
	id, err := sched.Submit(ctx, scheduler.JobSpec{
		Name: "allocs", App: "mw", Iterations: 1 << 30,
		InitialTopo: topo, Chain: []grid.Topology{topo},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := reshape.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	contact := func() {
		if _, err := cl.Contact(ctx, id, topo, 0.01, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		contact() // warm pools, symbol tables, maps and buffers
	}
	const budget = 2
	if got := testing.AllocsPerRun(2000, contact); got > budget {
		t.Fatalf("Contact round trip: %.2f allocations, budget %d", got, budget)
	}
}
