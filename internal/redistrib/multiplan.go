package redistrib

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/blockcyclic"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// tagMulti is the base tag for fused multi-array payloads. Each schedule
// step uses tagMulti+step, so a rank that posts every send of an execution
// before its peers start receiving leaves no two in-flight messages
// ambiguous. Tags [tagMulti, tagMulti+Steps) are reserved during a
// MultiPlan execution.
const tagMulti = 10000

// MultiPlan fuses the redistribution of several block-cyclic arrays that
// share one (source grid, destination grid) pair into a single schedule
// execution: per communication step each communicating pair exchanges one
// message carrying every array's blocks back to back, instead of one
// message per array. The wire format is deterministic sub-buffer framing —
// both sides compute each array's per-step block class (and therefore its
// exact float count and offset) from the shared layout tables, so no header
// is transmitted. Array order is the registration order and must match on
// all ranks.
//
// The per-array Plan path (Plan.Execute) is retained as the reference
// implementation; differential tests pin this engine's output bit-identical
// to it.
type MultiPlan struct {
	plans []*Plan
	// rowClass[a][s*Q+d] is array a's row block class for the pair (source
	// grid row s, destination grid row d of Q); colClass likewise for
	// columns. Built once for every pair, so an execution allocates no
	// index tables and any rank may execute the plan concurrently.
	rowClass, colClass [][][]int
}

// NewMultiPlan validates that every (src, dst) layout pair describes a
// legal redistribution and that all pairs share the same processor grids,
// then builds the fused plan. The circulant schedule tables are computed
// once and shared across arrays (they depend only on the grid pair).
func NewMultiPlan(srcs, dsts []blockcyclic.Layout) (*MultiPlan, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("redistrib: MultiPlan needs at least one array")
	}
	if len(srcs) != len(dsts) {
		return nil, fmt.Errorf("redistrib: MultiPlan has %d source layouts but %d destination layouts", len(srcs), len(dsts))
	}
	first, err := NewPlan(srcs[0], dsts[0])
	if err != nil {
		return nil, fmt.Errorf("redistrib: array 0: %w", err)
	}
	plans := make([]*Plan, len(srcs))
	plans[0] = first
	for i := 1; i < len(srcs); i++ {
		if srcs[i].Grid != srcs[0].Grid || dsts[i].Grid != dsts[0].Grid {
			return nil, fmt.Errorf("redistrib: array %d grids (%v -> %v) differ from array 0 (%v -> %v)",
				i, srcs[i].Grid, dsts[i].Grid, srcs[0].Grid, dsts[0].Grid)
		}
		pl, err := newPlanSharedSchedule(srcs[i], dsts[i], first)
		if err != nil {
			return nil, fmt.Errorf("redistrib: array %d: %w", i, err)
		}
		plans[i] = pl
	}
	mp := &MultiPlan{plans: plans, rowClass: make([][][]int, len(plans)), colClass: make([][][]int, len(plans))}
	for a, pl := range plans {
		mp.rowClass[a] = classTable(pl.Src.BlockRows(), pl.Src.Grid.Rows, pl.Dst.Grid.Rows)
		mp.colClass[a] = classTable(pl.Src.BlockCols(), pl.Src.Grid.Cols, pl.Dst.Grid.Cols)
	}
	return mp, nil
}

// classTable is classBlocks for every (s, d) pair at once, indexed s*q+d.
// The classes partition the blocks, so they are carved out of one backing
// array.
func classTable(nblocks, p, q int) [][]int {
	class := func(j int) int { return (j%p)*q + j%q }
	counts := make([]int, p*q)
	for j := 0; j < nblocks; j++ {
		counts[class(j)]++
	}
	t := make([][]int, p*q)
	backing := make([]int, nblocks)
	for k, n := range counts {
		t[k], backing = backing[:0:n], backing[n:]
	}
	for j := 0; j < nblocks; j++ {
		t[class(j)] = append(t[class(j)], j)
	}
	return t
}

// newPlanSharedSchedule builds a Plan for one array reusing the schedule
// and peer tables of ref, whose grids must match.
func newPlanSharedSchedule(src, dst blockcyclic.Layout, ref *Plan) (*Plan, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	if err := dst.Validate(); err != nil {
		return nil, err
	}
	if src.M != dst.M || src.N != dst.N {
		return nil, fmt.Errorf("redistrib: global shape mismatch %dx%d vs %dx%d", src.M, src.N, dst.M, dst.N)
	}
	if src.MB != dst.MB || src.NB != dst.NB {
		return nil, fmt.Errorf("redistrib: block shape mismatch %dx%d vs %dx%d", src.MB, src.NB, dst.MB, dst.NB)
	}
	return &Plan{
		Src: src, Dst: dst,
		rowSched: ref.rowSched, colSched: ref.colSched,
		rowSendTo: ref.rowSendTo, rowRecvFrom: ref.rowRecvFrom,
		colSendTo: ref.colSendTo, colRecvFrom: ref.colRecvFrom,
	}, nil
}

// Arrays returns the number of fused arrays.
func (mp *MultiPlan) Arrays() int { return len(mp.plans) }

// Steps returns the number of communication steps in the shared schedule.
func (mp *MultiPlan) Steps() int { return mp.plans[0].Steps() }

// SrcGrid and DstGrid return the shared grid pair.
func (mp *MultiPlan) SrcGrid() grid.Topology { return mp.plans[0].Src.Grid }
func (mp *MultiPlan) DstGrid() grid.Topology { return mp.plans[0].Dst.Grid }

// wireBufs recycles the fused wire buffers, one sync.Pool per power-of-two
// capacity class so a Get never returns a buffer that is too small. A buffer
// has one owner at a time: the sender takes it, packs it, hands it to
// mpi.Comm.Send by reference and never touches it again; the receiver
// unpacks it and is the only side that returns it. Recycled buffers are not
// cleared — pack overwrites every float it sends.
var wireBufs [bits.UintSize]sync.Pool

// getWire returns an empty buffer with room for n (> 0) floats.
func getWire(n int) []float64 {
	class := bits.Len(uint(n - 1))
	if p, _ := wireBufs[class].Get().(*[]float64); p != nil {
		return (*p)[:0]
	}
	return make([]float64, 0, 1<<class)
}

// putWire returns a (non-empty) buffer the caller has finished unpacking to
// the pool.
func putWire(buf []float64) {
	wireBufs[bits.Len(uint(cap(buf)))-1].Put(&buf)
}

// frame fills sizes[a] with each array's float count for the block class
// (row pair ri, column pair ci) — the framing offsets of the step's fused
// buffer — and returns their sum.
func (mp *MultiPlan) frame(sizes []int, ri, ci int) (total int) {
	for a, pl := range mp.plans {
		sizes[a] = pl.payloadSize(mp.rowClass[a][ri], mp.colClass[a][ci])
		total += sizes[a]
	}
	return total
}

// Execute redistributes every fused array at once. srcData holds the
// caller's local piece of each array in plan order (entries may be nil on
// ranks outside the source grid or with empty local pieces); the result
// holds the new local pieces (nil entries on ranks outside the destination
// grid). Collective over c, like Plan.Execute.
func (mp *MultiPlan) Execute(c *mpi.Comm, srcData [][]float64) [][]float64 {
	out, _ := mp.ExecuteStats(c, srcData)
	return out
}

// ExecuteStats is Execute plus per-rank traffic statistics. The new pieces
// are freshly allocated; srcData is only read.
func (mp *MultiPlan) ExecuteStats(c *mpi.Comm, srcData [][]float64) ([][]float64, Stats) {
	dst := make([][]float64, len(mp.plans))
	return dst, mp.ExecuteInto(c, srcData, dst)
}

// ExecuteInto is ExecuteStats writing the new local pieces into
// caller-supplied storage: on return dst[a] is array a's new piece (nil on
// ranks outside the destination grid). An entry with enough capacity is
// resliced and overwritten in full — it need not be zeroed, because the
// block classes of the inbound steps tile the destination piece exactly —
// and any other entry is allocated. dst[a] must not share storage with
// srcData[a], which is only read.
//
// Every float is copied as few times as the distributed-memory model
// allows: a remote float twice (packed into a pooled wire buffer that is
// handed to the receiver by reference, unpacked out of it), a float the
// rank keeps across the resize once (block row to block row). The rank
// first packs and posts every send — sends are eager and the mailbox is
// unbounded, so nothing is gained by posting receives ahead of them — then
// receives step by step, unpacking each delivered buffer and returning it
// to the pool. A MultiPlan is immutable, so one plan may be executed by
// every rank concurrently.
func (mp *MultiPlan) ExecuteInto(c *mpi.Comm, srcData, dst [][]float64) Stats {
	base := mp.plans[0]
	me := c.Rank()
	p := base.Src.Grid.Count()
	q := base.Dst.Grid.Count()
	if c.Size() < p || c.Size() < q {
		panic(fmt.Sprintf("redistrib: communicator size %d smaller than grids (%d src, %d dst)", c.Size(), p, q))
	}
	if len(srcData) != len(mp.plans) || len(dst) != len(mp.plans) {
		panic(fmt.Sprintf("redistrib: %d source and %d destination slices for %d fused arrays", len(srcData), len(dst), len(mp.plans)))
	}
	inSrc := me < p
	inDst := me < q
	for a, pl := range mp.plans {
		if inSrc && len(srcData[a]) != pl.Src.LocalSize(me) {
			panic(fmt.Sprintf("redistrib: rank %d array %d has %d floats, layout expects %d",
				me, a, len(srcData[a]), pl.Src.LocalSize(me)))
		}
		if !inDst {
			dst[a] = nil
		} else if n := pl.Dst.LocalSize(me); dst[a] == nil || cap(dst[a]) < n {
			dst[a] = make([]float64, n)
		} else {
			dst[a] = dst[a][:n]
		}
	}

	var stats Stats
	var sr, sc, dr, dc int
	if inSrc {
		sr, sc = base.Src.Coords(me)
	}
	if inDst {
		dr, dc = base.Dst.Coords(me)
	}
	nc := len(base.colSched)
	qr, qc := base.Dst.Grid.Rows, base.Dst.Grid.Cols
	sizes := make([]int, len(mp.plans))

	// Outbound: one message per communicating pair per step carries every
	// array's blocks back to back; blocks this rank keeps go straight from
	// the old piece to the new one.
	for tr := 0; inSrc && tr < len(base.rowSched); tr++ {
		toRow := base.rowSendTo[tr][sr]
		if toRow < 0 {
			continue
		}
		ri := sr*qr + toRow
		for tc := 0; tc < nc; tc++ {
			toCol := base.colSendTo[tc][sc]
			if toCol < 0 {
				continue
			}
			ci := sc*qc + toCol
			total := mp.frame(sizes, ri, ci)
			if total == 0 {
				continue
			}
			dest := base.Dst.Rank(toRow, toCol)
			if dest == me {
				for a, pl := range mp.plans {
					pl.copyBlocks(dst[a], srcData[a], sc, dc, mp.rowClass[a][ri], mp.colClass[a][ci])
				}
				stats.LocalCopies++
				stats.FloatsCopied += total
				continue
			}
			buf := getWire(total)
			for a, pl := range mp.plans {
				buf = pl.packAppend(buf, srcData[a], sr, sc, mp.rowClass[a][ri], mp.colClass[a][ci])
			}
			c.Send(dest, tagMulti+tr*nc+tc, buf)
			stats.MessagesSent++
			stats.FloatsSent += total
		}
	}

	// Inbound: unpack each delivered buffer at the per-array offsets both
	// sides derived from the layout tables, then recycle it.
	for tr := 0; inDst && tr < len(base.rowSched); tr++ {
		fromRow := base.rowRecvFrom[tr][dr]
		if fromRow < 0 {
			continue
		}
		ri := fromRow*qr + dr
		for tc := 0; tc < nc; tc++ {
			fromCol := base.colRecvFrom[tc][dc]
			if fromCol < 0 {
				continue
			}
			ci := fromCol*qc + dc
			total := mp.frame(sizes, ri, ci)
			source := base.Src.Rank(fromRow, fromCol)
			if total == 0 || source == me {
				continue
			}
			buf := c.RecvFloats(source, tagMulti+tr*nc+tc)
			if len(buf) != total {
				panic(fmt.Sprintf("redistrib: rank %d step %d: %d floats from rank %d, layout expects %d",
					me, tr*nc+tc, len(buf), source, total))
			}
			off := 0
			for a, pl := range mp.plans {
				pl.unpack(buf[off:off+sizes[a]], dst[a], dr, dc, mp.rowClass[a][ri], mp.colClass[a][ci])
				off += sizes[a]
			}
			putWire(buf)
			stats.MessagesRecv++
			stats.FloatsRecv += total
		}
	}
	return stats
}

// RedistributeMulti is the one-shot convenience wrapper over NewMultiPlan +
// Execute, mirroring Redistribute for the fused engine.
func RedistributeMulti(c *mpi.Comm, srcs []blockcyclic.Layout, srcData [][]float64, dsts []blockcyclic.Layout) ([][]float64, error) {
	mp, err := NewMultiPlan(srcs, dsts)
	if err != nil {
		return nil, err
	}
	return mp.Execute(c, srcData), nil
}
