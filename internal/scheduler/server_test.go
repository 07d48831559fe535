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
	before := runtime.NumGoroutine()
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
	}
	if n := runtime.NumGoroutine(); n < before+12 {
		t.Fatalf("%d goroutines with eight servers up, %d before: the pipelines did not start", n, before)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the servers were dropped, %d before", runtime.NumGoroutine(), before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
