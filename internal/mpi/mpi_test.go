package mpi

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunSingleRank(t *testing.T) {
	ran := false
	err := Run(1, func(c *Comm) error {
		ran = true
		if c.Rank() != 0 || c.Size() != 1 {
			t.Errorf("rank/size = %d/%d, want 0/1", c.Rank(), c.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("rank function never ran")
	}
}

func TestRunRejectsZeroRanks(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run(0) should fail")
	}
}

func TestRunCollectsErrors(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank()%2 == 1 {
			return fmt.Errorf("boom %d", c.Rank())
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected joined errors")
	}
}

// runWithin runs fn on n ranks and fails the test if Run has not returned
// within a second.
func runWithin(t *testing.T, n int, fn func(*Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Run(n, fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatal("Run still blocked 1s after a rank failed")
		return nil
	}
}

func TestAbortUnblocksPeers(t *testing.T) {
	// Rank 2 fails; rank 1 waits in a receive from it and rank 0 in a
	// barrier rank 1 never reaches. Both unwind, and only rank 2 reports.
	err := runWithin(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Barrier()
		case 1:
			c.RecvFloats(2, 0)
		case 2:
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 2 (gid 2): boom") {
		t.Fatalf("Run returned %v, want rank 2's error", err)
	}
	if n := strings.Count(err.Error(), "rank "); n != 1 {
		t.Errorf("Run reported %d ranks, want only the failing one: %v", n, err)
	}
}

func TestAbortStillDeliversQueuedMessages(t *testing.T) {
	var got []float64
	err := runWithin(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendFloats(1, 0, []float64{42})
			return errors.New("boom")
		}
		for !aborted(c.proc) {
			runtime.Gosched()
		}
		got = c.RecvFloats(0, 0) // already queued: returned
		c.RecvFloats(0, 0)       // would block: unwinds
		return errors.New("unreachable")
	})
	if err == nil || strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("Run returned %v, want only rank 0's error", err)
	}
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("queued message after abort = %v, want [42]", got)
	}
}

// aborted reports whether the world has marked p's mailbox aborted.
func aborted(p *proc) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.aborted
}

func TestPanicBecomesError(t *testing.T) {
	err := runWithin(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		c.RecvFloats(1, 0)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panic: kaboom") {
		t.Fatalf("Run returned %v, want the panic value", err)
	}
	if !strings.Contains(err.Error(), "TestPanicBecomesError") {
		t.Errorf("panic error carries no stack: %v", err)
	}
}

func TestSendRecvPingPong(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendFloats(1, 7, []float64{1, 2, 3})
			got := c.RecvFloats(1, 8)
			if len(got) != 3 || got[0] != 2 || got[1] != 4 || got[2] != 6 {
				return fmt.Errorf("got %v", got)
			}
		} else {
			xs := c.RecvFloats(0, 7)
			for i := range xs {
				xs[i] *= 2
			}
			c.SendFloats(0, 8, xs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendFloatsCopies(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float64{1, 2, 3}
			c.SendFloats(1, 0, buf)
			buf[0] = 99 // must not affect the receiver
			c.Barrier()
		} else {
			c.Barrier()
			got := c.RecvFloats(0, 0)
			if got[0] != 1 {
				return fmt.Errorf("send did not copy: got %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				_, src, tag := c.Recv(AnySource, AnyTag)
				if tag != src*10 {
					return fmt.Errorf("src %d carried tag %d", src, tag)
				}
				seen[src] = true
			}
			if !seen[1] || !seen[2] {
				return fmt.Errorf("missing sources: %v", seen)
			}
		} else {
			c.Send(0, c.Rank()*10, c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderPreservedPerSender(t *testing.T) {
	const n = 50
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, i)
			}
		} else {
			for i := 0; i < n; i++ {
				v, _, _ := c.Recv(0, 3)
				if v.(int) != i {
					return fmt.Errorf("message %d arrived out of order as %v", i, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var phase atomic.Int32
	err := Run(8, func(c *Comm) error {
		phase.Add(1)
		c.Barrier()
		if got := phase.Load(); got != 8 {
			return fmt.Errorf("rank %d saw phase %d after barrier", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedBarriers(t *testing.T) {
	var counter atomic.Int64
	const rounds = 20
	err := Run(5, func(c *Comm) error {
		for i := 0; i < rounds; i++ {
			counter.Add(1)
			c.Barrier()
			want := int64(5 * (i + 1))
			if got := counter.Load(); got != want {
				return fmt.Errorf("round %d: counter %d, want %d", i, got, want)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 7, 8} {
		size := size
		t.Run(fmt.Sprintf("size%d", size), func(t *testing.T) {
			err := Run(size, func(c *Comm) error {
				for root := 0; root < size; root++ {
					want := root*100 + 7
					var x int
					if c.Rank() == root {
						x = want
					}
					got := c.BcastInt(root, x)
					if got != want {
						return fmt.Errorf("rank %d root %d: got %d want %d", c.Rank(), root, got, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBcastFloatsPrivateCopy(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		xs := []float64{float64(c.Rank()), 1}
		got := c.BcastFloats(0, xs)
		got[0] += 100 // mutating must not leak to other ranks
		c.Barrier()
		again := c.BcastFloats(0, []float64{5, 5})
		if again[0] != 5 {
			return fmt.Errorf("second bcast corrupted: %v", again)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		xs := []float64{float64(c.Rank()), 1}
		got := c.Reduce(0, xs, SumOp)
		if c.Rank() == 0 {
			if got[0] != 15 || got[1] != 6 {
				return fmt.Errorf("reduce got %v", got)
			}
		} else if got != nil {
			return fmt.Errorf("non-root got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// maxOp keeps the element-wise maximum in dst.
func maxOp(dst, src []float64) {
	for i := range dst {
		dst[i] = max(dst[i], src[i])
	}
}

func TestAllreduceSumAndMax(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		s := c.AllreduceSum(float64(c.Rank() + 1))
		if s != 15 {
			return fmt.Errorf("sum got %v", s)
		}
		m := c.Allreduce([]float64{float64(c.Rank())}, maxOp)[0]
		if m != 4 {
			return fmt.Errorf("max got %v", m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceMinOp(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		got := c.Allreduce([]float64{float64(10 - c.Rank())}, func(dst, src []float64) {
			for i := range dst {
				dst[i] = min(dst[i], src[i])
			}
		})
		if got[0] != 7 {
			return fmt.Errorf("min got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherFloats(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		all := c.GatherFloats(0, []float64{float64(c.Rank()) * 2})
		if c.Rank() != 0 {
			if all != nil {
				return fmt.Errorf("non-root rank %d got %v", c.Rank(), all)
			}
			return nil
		}
		for r, xs := range all {
			if len(xs) != 1 || xs[0] != float64(r)*2 {
				return fmt.Errorf("gather slot %d = %v", r, xs)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		all := c.AllgatherFloats([]float64{float64(c.Rank() * c.Rank())})
		for r := 0; r < 4; r++ {
			if all[r][0] != float64(r*r) {
				return fmt.Errorf("allgather[%d] = %v", r, all[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallv(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		bufs := make([][]float64, 4)
		for r := range bufs {
			// send r copies of my rank to rank r
			for i := 0; i < r; i++ {
				bufs[r] = append(bufs[r], float64(c.Rank()))
			}
		}
		got := c.Alltoallv(bufs)
		for src := range got {
			if len(got[src]) != c.Rank() {
				return fmt.Errorf("from %d: got %d elems, want %d", src, len(got[src]), c.Rank())
			}
			for _, v := range got[src] {
				if v != float64(src) {
					return fmt.Errorf("from %d: value %v", src, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedCollectivesDoNotCrossMatch(t *testing.T) {
	// Stress ordering: many back-to-back collectives with asymmetric work.
	err := Run(6, func(c *Comm) error {
		for i := 0; i < 30; i++ {
			v := c.AllreduceSum(float64(i))
			if v != float64(6*i) {
				return fmt.Errorf("iter %d: sum %v", i, v)
			}
			if c.BcastInt(i%6, i) != i {
				return fmt.Errorf("iter %d: bcast mismatch", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitRowsAndColumns(t *testing.T) {
	// 6 ranks as a 2x3 grid; split into row comms and col comms.
	err := Run(6, func(c *Comm) error {
		row, col := c.Rank()/3, c.Rank()%3
		rowComm := c.Split(row, col)
		colComm := c.Split(col, row)
		if rowComm.Size() != 3 || rowComm.Rank() != col {
			return fmt.Errorf("row comm size/rank = %d/%d", rowComm.Size(), rowComm.Rank())
		}
		if colComm.Size() != 2 || colComm.Rank() != row {
			return fmt.Errorf("col comm size/rank = %d/%d", colComm.Size(), colComm.Rank())
		}
		// Sum over my row should be row-local.
		s := rowComm.AllreduceSum(float64(c.Rank()))
		want := float64(row*9 + 3) // ranks row*3 + {0,1,2}
		if s != want {
			return fmt.Errorf("row sum %v, want %v", s, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitNegativeColorExcluded(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		color := 0
		if c.Rank() >= 2 {
			color = -1
		}
		sub := c.Split(color, c.Rank())
		if c.Rank() < 2 {
			if sub == nil || sub.Size() != 2 {
				return fmt.Errorf("rank %d excluded wrongly", c.Rank())
			}
		} else if sub != nil {
			return fmt.Errorf("rank %d should be excluded", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubCommunicator(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		sub := c.Sub([]int{0, 2, 4})
		switch c.Rank() {
		case 0, 2, 4:
			if sub == nil {
				return fmt.Errorf("rank %d missing from sub", c.Rank())
			}
			if sub.Size() != 3 || sub.Rank() != c.Rank()/2 {
				return fmt.Errorf("rank %d: sub size/rank %d/%d", c.Rank(), sub.Size(), sub.Rank())
			}
			if got := sub.AllreduceSum(1); got != 3 {
				return fmt.Errorf("sub allreduce %v", got)
			}
		default:
			if sub != nil {
				return fmt.Errorf("rank %d should not be in sub", c.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDupIsolatesTraffic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		d := c.Split(0, c.Rank()) // one color: MPI_Comm_dup
		if c.Rank() == 0 {
			c.Send(1, 5, "on-c")
			d.Send(1, 5, "on-d")
		} else {
			// Receive on d first even though c's message was sent first:
			// contexts must isolate the two.
			v, _, _ := d.Recv(0, 5)
			if v.(string) != "on-d" {
				return fmt.Errorf("dup leaked: %v", v)
			}
			v, _, _ = c.Recv(0, 5)
			if v.(string) != "on-c" {
				return fmt.Errorf("wrong message on c: %v", v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpawnAndMerge(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		ic := c.Spawn(3, func(child *Intercomm) error {
			m := child.Merge()
			// children are ranks 2,3,4 of the merged comm of size 5
			if m.Size() != 5 {
				return fmt.Errorf("child merged size %d", m.Size())
			}
			if m.Rank() != 2+child.local.rank {
				return fmt.Errorf("child merged rank %d (local %d)", m.Rank(), child.local.rank)
			}
			s := m.AllreduceSum(float64(m.Rank()))
			if s != 10 {
				return fmt.Errorf("child allreduce %v", s)
			}
			return nil
		})
		if len(ic.remote) != 3 {
			return fmt.Errorf("remote size %d", len(ic.remote))
		}
		m := ic.Merge()
		if m.Size() != 5 || m.Rank() != c.Rank() {
			return fmt.Errorf("parent merged size/rank %d/%d", m.Size(), m.Rank())
		}
		s := m.AllreduceSum(float64(m.Rank()))
		if s != 10 {
			return fmt.Errorf("parent allreduce %v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSpawnGrowsTwice(t *testing.T) {
	// Grow 1 -> 2 -> 4 as the resize library does on repeated expansion.
	err := Run(1, func(c *Comm) error {
		work := func(m *Comm) error {
			s := m.AllreduceSum(1)
			if s != float64(m.Size()) {
				return fmt.Errorf("size %d sum %v", m.Size(), s)
			}
			return nil
		}
		grown2 := make(chan *Comm, 1)
		ic := c.Spawn(1, func(child *Intercomm) error {
			m := child.Merge()
			if err := work(m); err != nil {
				return err
			}
			// participate in the second expansion as a parent
			ic2 := m.Spawn(2, func(grand *Intercomm) error {
				return work(grand.Merge())
			})
			return work(ic2.Merge())
		})
		m := ic.Merge()
		if err := work(m); err != nil {
			return err
		}
		ic2 := m.Spawn(2, func(grand *Intercomm) error {
			return work(grand.Merge())
		})
		m2 := ic2.Merge()
		grown2 <- m2
		return work(m2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargePayloadIntegrity(t *testing.T) {
	const n = 1 << 16
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Sqrt(float64(i))
			}
			c.SendFloats(1, 0, xs)
		} else {
			xs := c.RecvFloats(0, 0)
			if len(xs) != n {
				return fmt.Errorf("len %d", len(xs))
			}
			for i := 0; i < n; i += 997 {
				if xs[i] != math.Sqrt(float64(i)) {
					return fmt.Errorf("corrupt at %d", i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
