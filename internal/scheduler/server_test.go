package scheduler

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestAbandonedServerEndsItsPipeline drops servers, volatile and behind a
// commit barrier, after driving an op through each: their apply and commit
// goroutines must end once nothing holds the servers, or every server a
// process ever built would stay in memory with its core.
func TestAbandonedServerEndsItsPipeline(t *testing.T) {
	// Servers earlier tests dropped end their pipelines when a collection
	// finds them; let those end first, or one ending during the count below
	// takes a goroutine off it. The count has settled when a collection and
	// a pause leave it unchanged (half a second at most).
	before := runtime.NumGoroutine()
	for range 100 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	// The servers stay reachable until the lower bound is read, so none of
	// them can end its pipeline before the count either.
	servers := make([]*Server, 0, 8)
	for i := 0; i < 8; i++ {
		core := NewCore(8, true)
		if i%2 == 1 {
			core.SetJournal(func(Op) error { return nil })
			core.SetCommit(func() error { return nil })
		}
		srv := NewServerCore(core, nil)
		if _, err := srv.Submit(context.Background(), spec("a", topo(1, 2), 8000)); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	if n := runtime.NumGoroutine(); n < before+12 {
		t.Fatalf("%d goroutines with eight servers up, %d before: the pipelines did not start", n, before)
	}
	runtime.KeepAlive(servers) // the servers' last use: from here they may go
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the servers were dropped, %d before", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
