package mpi

import (
	"fmt"
	"sort"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -2
)

// Comm is a communicator: an ordered group of ranks sharing a context.
// All point-to-point and collective operations are scoped to a Comm.
type Comm struct {
	world *World
	proc  *proc
	ctx   int
	procs []*proc // members' mailboxes, resolved once; index is the communicator rank
	rank  int     // caller's rank within this communicator
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.procs) }

// Send delivers v to rank dst with the given tag. The value is delivered by
// reference: the receiver must not mutate it. Use SendFloats for a buffer
// the sender may reuse.
func (c *Comm) Send(dst, tag int, v any) {
	c.sendCtx(c.ctx, dst, tag, v)
}

func (c *Comm) sendCtx(ctx, dst, tag int, v any) {
	if dst < 0 || dst >= len(c.procs) {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", dst, len(c.procs)))
	}
	c.procs[dst].deliver(envelope{ctx: ctx, src: c.rank, tag: tag, data: v})
}

// SendFloats copies xs and delivers the copy to rank dst.
func (c *Comm) SendFloats(dst, tag int, xs []float64) {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	c.Send(dst, tag, cp)
}

// Recv blocks until a message matching src and tag arrives and returns its
// payload plus the actual source rank and tag. src may be AnySource and tag
// may be AnyTag.
func (c *Comm) Recv(src, tag int) (v any, actualSrc, actualTag int) {
	e := c.proc.take(c.ctx, src, tag)
	return e.data, e.src, e.tag
}

// RecvFloats receives a []float64 message.
func (c *Comm) RecvFloats(src, tag int) []float64 {
	v, _, _ := c.Recv(src, tag)
	xs, ok := v.([]float64)
	if !ok {
		panic(fmt.Sprintf("mpi: RecvFloats got %T", v))
	}
	return xs
}

// Split partitions the communicator by color, ordering ranks within each new
// communicator by (key, old rank), exactly like MPI_Comm_split. A negative
// color returns nil for that rank. Collective.
func (c *Comm) Split(color, key int) *Comm {
	type entry struct{ color, key, rank int }
	mine := entry{color, key, c.rank}

	if c.rank != 0 {
		c.Send(0, tagSplit, mine)
		v, _, _ := c.Recv(0, tagSplit)
		res := v.(splitResult)
		if res.ctx < 0 {
			return nil
		}
		return &Comm{world: c.world, proc: c.proc, ctx: res.ctx, procs: res.procs, rank: res.rank}
	}

	entries := make([]entry, c.Size())
	entries[c.rank] = mine
	for i := 1; i < c.Size(); i++ {
		v, src, _ := c.Recv(AnySource, tagSplit)
		entries[src] = v.(entry)
	}
	// Group by color.
	byColor := make(map[int][]entry)
	for _, e := range entries {
		if e.color >= 0 {
			byColor[e.color] = append(byColor[e.color], e)
		}
	}
	results := make([]splitResult, c.Size())
	for i := range results {
		results[i].ctx = -1
	}
	colors := make([]int, 0, len(byColor))
	for col := range byColor {
		colors = append(colors, col)
	}
	sort.Ints(colors)
	for _, col := range colors {
		group := byColor[col]
		sort.Slice(group, func(i, j int) bool {
			if group[i].key != group[j].key {
				return group[i].key < group[j].key
			}
			return group[i].rank < group[j].rank
		})
		ctx := c.world.allocCtx()
		procs := make([]*proc, len(group))
		for i, e := range group {
			procs[i] = c.procs[e.rank]
		}
		for i, e := range group {
			results[e.rank] = splitResult{ctx: ctx, procs: procs, rank: i}
		}
	}
	for r := 1; r < c.Size(); r++ {
		c.Send(r, tagSplit, results[r])
	}
	res := results[0]
	if res.ctx < 0 {
		return nil
	}
	return &Comm{world: c.world, proc: c.proc, ctx: res.ctx, procs: res.procs, rank: res.rank}
}

type splitResult struct {
	ctx   int
	procs []*proc
	rank  int
}

// Sub returns a communicator containing only the listed ranks (in the given
// order). Collective over the parent: every rank of c must call Sub with the
// same ranks slice; ranks not in the list receive nil.
func (c *Comm) Sub(ranks []int) *Comm {
	color, key := -1, 0
	for i, r := range ranks {
		if r == c.rank {
			color, key = 0, i
		}
	}
	return c.Split(color, key)
}

// Internal tags used by collective implementations. User tags must be >= 0.
const (
	tagSplit = -(100 + iota)
	tagBarrierIn
	tagBarrierOut
	tagBcast
	tagReduce
	tagGather
	tagAlltoall
)
