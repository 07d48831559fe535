package mpi

import "fmt"

// Collectives receive from explicit source ranks rather than AnySource so
// that back-to-back collective calls on the same communicator cannot
// cross-match messages from ranks that have already raced ahead into the
// next call. Per-(sender,receiver,tag,context) FIFO order then guarantees
// correctness.

// Barrier blocks until every rank in the communicator has entered it.
func (c *Comm) Barrier() {
	if c.rank == 0 {
		for r := 1; r < c.Size(); r++ {
			c.Recv(r, tagBarrierIn)
		}
		for r := 1; r < c.Size(); r++ {
			c.Send(r, tagBarrierOut, struct{}{})
		}
	} else {
		c.Send(0, tagBarrierIn, struct{}{})
		c.Recv(0, tagBarrierOut)
	}
}

// Bcast broadcasts v from root to every rank via a binomial tree and returns
// the received value on every rank (on root it returns v unchanged). The
// value is shared by reference; receivers must not mutate it.
func (c *Comm) Bcast(root int, v any) any {
	n := c.Size()
	if n == 1 {
		return v
	}
	me := (c.rank - root + n) % n // rank in root-shifted space
	mask := 1
	for mask < n {
		if me&mask != 0 {
			parent := (me - mask + root) % n
			got, _, _ := c.Recv(parent, tagBcast)
			v = got
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if me+mask < n {
			child := (me + mask + root) % n
			c.Send(child, tagBcast, v)
		}
	}
	return v
}

// BcastFloats broadcasts a float64 slice from root. Every rank — including
// the root — may freely mutate the returned slice afterwards: the root
// injects a private copy into the broadcast tree and each receiver copies
// out of it.
func (c *Comm) BcastFloats(root int, xs []float64) []float64 {
	var payload []float64
	if c.rank == root {
		payload = make([]float64, len(xs))
		copy(payload, xs)
	}
	v := c.Bcast(root, payload)
	if c.rank == root {
		return xs
	}
	got := v.([]float64)
	cp := make([]float64, len(got))
	copy(cp, got)
	return cp
}

// BcastInt broadcasts a single int from root.
func (c *Comm) BcastInt(root, x int) int {
	return c.Bcast(root, x).(int)
}

// ReduceOp combines two equal-length float64 slices element-wise into dst.
type ReduceOp func(dst, src []float64)

// SumOp adds src into dst element-wise.
func SumOp(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Reduce combines xs across ranks with op; the combined slice is returned on
// root and nil elsewhere. xs is not mutated.
func (c *Comm) Reduce(root int, xs []float64, op ReduceOp) []float64 {
	if c.rank != root {
		c.SendFloats(root, tagReduce, xs)
		return nil
	}
	acc := make([]float64, len(xs))
	copy(acc, xs)
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		got := c.RecvFloats(r, tagReduce)
		if len(got) != len(acc) {
			panic(fmt.Sprintf("mpi: Reduce length mismatch %d vs %d", len(got), len(acc)))
		}
		op(acc, got)
	}
	return acc
}

// Allreduce combines xs across all ranks with op and returns the combined
// slice on every rank.
func (c *Comm) Allreduce(xs []float64, op ReduceOp) []float64 {
	acc := c.Reduce(0, xs, op)
	return c.BcastFloats(0, acc)
}

// AllreduceSum is Allreduce with SumOp on a single scalar.
func (c *Comm) AllreduceSum(x float64) float64 {
	return c.Allreduce([]float64{x}, SumOp)[0]
}

// GatherFloats collects a float64 slice per rank at root, indexed by rank.
func (c *Comm) GatherFloats(root int, xs []float64) [][]float64 {
	if c.rank != root {
		c.SendFloats(root, tagGather, xs)
		return nil
	}
	out := make([][]float64, c.Size())
	cp := make([]float64, len(xs))
	copy(cp, xs)
	out[c.rank] = cp
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		got, _, _ := c.Recv(r, tagGather)
		out[r] = got.([]float64)
	}
	return out
}

// AllgatherFloats collects a float64 slice per rank on every rank.
func (c *Comm) AllgatherFloats(xs []float64) [][]float64 {
	all := c.GatherFloats(0, xs)
	res := c.Bcast(0, all)
	return res.([][]float64)
}

// Alltoallv sends sendbufs[r] to rank r and returns the slice received from
// each rank, indexed by source rank. Empty or nil buffers are allowed.
// Every buffer is handed over by reference, the caller's own one included:
// the caller gives up sendbufs and must not write to any of its buffers
// until every receiver is provably done reading (a Barrier after the
// reads), and the slices returned are the senders' buffers, to be read
// only. The buffers may share one backing array.
func (c *Comm) Alltoallv(sendbufs [][]float64) [][]float64 {
	if len(sendbufs) != c.Size() {
		panic(fmt.Sprintf("mpi: Alltoallv needs %d buffers, got %d", c.Size(), len(sendbufs)))
	}
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		c.Send(r, tagAlltoall, sendbufs[r])
	}
	out := make([][]float64, c.Size())
	out[c.rank] = sendbufs[c.rank]
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		out[r] = c.RecvFloats(r, tagAlltoall)
	}
	return out
}
