package redistrib

import (
	"fmt"

	"repro/internal/blockcyclic"
	"repro/internal/mpi"
)

// tagMulti is the base tag for fused payloads. Each schedule step uses
// tagMulti+step, so a rank that posts every send of an execution before its
// peers start receiving leaves no two in-flight messages ambiguous. Tags
// [tagMulti, tagMulti+Steps) are reserved during an execution.
const tagMulti = 10000

// MultiPlan redistributes one or more block-cyclic arrays that share one
// (source grid, destination grid) pair in a single execution of the
// circulant schedule: per communication step each communicating pair
// exchanges one message carrying every array's blocks back to back. The
// wire format is deterministic sub-buffer framing — both sides compute each
// array's per-step block class (and therefore its exact float count and
// offset) from the shared layout tables, so no header is transmitted. Array
// order is the registration order and must match on all ranks.
type MultiPlan struct {
	arrays []array
	// Per schedule step t: rowSendTo[t][s] is the destination grid row that
	// source grid row s sends to (-1 for none) and rowRecvFrom[t][d] its
	// inverse; colSendTo/colRecvFrom likewise for columns. The 2-D schedule
	// is the product of the two 1-D schedules.
	rowSendTo, rowRecvFrom [][]int
	colSendTo, colRecvFrom [][]int
}

// array is one fused array's layout pair and block classes: rowClass[s*Q+d]
// lists the global block rows that move from source grid row s to
// destination grid row d of Q, colClass likewise for block columns. The
// classes are built once for every pair, so an execution allocates no index
// tables and any rank may execute the plan concurrently.
type array struct {
	src, dst           blockcyclic.Layout
	rowClass, colClass [][]int
}

// NewMultiPlan validates that every (src, dst) layout pair describes the
// same global array with the same blocking and that all pairs share the
// same processor grids, then builds the plan. The circulant schedule
// depends only on the grid pair, so its tables are built once for all
// arrays.
func NewMultiPlan(srcs, dsts []blockcyclic.Layout) (*MultiPlan, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("redistrib: MultiPlan needs at least one array")
	}
	if len(srcs) != len(dsts) {
		return nil, fmt.Errorf("redistrib: MultiPlan has %d source layouts but %d destination layouts", len(srcs), len(dsts))
	}
	from, to := srcs[0].Grid, dsts[0].Grid
	mp := &MultiPlan{arrays: make([]array, len(srcs))}
	for i, src := range srcs {
		dst := dsts[i]
		if src.Grid != from || dst.Grid != to {
			return nil, fmt.Errorf("redistrib: array %d grids (%v -> %v) differ from array 0 (%v -> %v)",
				i, src.Grid, dst.Grid, from, to)
		}
		if err := checkPair(src, dst); err != nil {
			return nil, fmt.Errorf("redistrib: array %d: %w", i, err)
		}
		mp.arrays[i] = array{
			src: src, dst: dst,
			rowClass: classTable(src.BlockRows(), from.Rows, to.Rows),
			colClass: classTable(src.BlockCols(), from.Cols, to.Cols),
		}
	}
	mp.rowSendTo, mp.rowRecvFrom = peerTables(Schedule1D(from.Rows, to.Rows), from.Rows, to.Rows)
	mp.colSendTo, mp.colRecvFrom = peerTables(Schedule1D(from.Cols, to.Cols), from.Cols, to.Cols)
	return mp, nil
}

// checkPair reports whether src and dst describe the same global array with
// the same blocking, the precondition for moving whole blocks.
func checkPair(src, dst blockcyclic.Layout) error {
	if err := src.Validate(); err != nil {
		return err
	}
	if err := dst.Validate(); err != nil {
		return err
	}
	if src.M != dst.M || src.N != dst.N {
		return fmt.Errorf("redistrib: global shape mismatch %dx%d vs %dx%d", src.M, src.N, dst.M, dst.N)
	}
	if src.MB != dst.MB || src.NB != dst.NB {
		return fmt.Errorf("redistrib: block shape mismatch %dx%d vs %dx%d", src.MB, src.NB, dst.MB, dst.NB)
	}
	return nil
}

// classTable lists, for every (s, d) pair at once and indexed s*q+d, the
// block indices j below nblocks with j mod p == s and j mod q == d — the
// rows of the paper's index tables belonging to one communicating pair. The
// classes partition the blocks, so they are carved out of one backing
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

// Steps returns the number of communication steps in the 2-D schedule.
func (mp *MultiPlan) Steps() int { return len(mp.rowSendTo) * len(mp.colSendTo) }

// Stats summarizes one rank's traffic during an execution.
type Stats struct {
	MessagesSent int
	MessagesRecv int
	FloatsSent   int
	FloatsRecv   int
	// LocalCopies counts self-transfers (the rank keeps a block class across
	// the resize); FloatsCopied is the volume those self-transfers moved, so
	// total data motion is FloatsSent + FloatsCopied even when the grids
	// overlap heavily.
	LocalCopies  int
	FloatsCopied int
}

// Add accumulates other into s (summing per-rank or per-execution stats).
func (s *Stats) Add(other Stats) {
	s.MessagesSent += other.MessagesSent
	s.MessagesRecv += other.MessagesRecv
	s.FloatsSent += other.FloatsSent
	s.FloatsRecv += other.FloatsRecv
	s.LocalCopies += other.LocalCopies
	s.FloatsCopied += other.FloatsCopied
}

// frame fills sizes[a] with each array's float count for the block class
// (row pair ri, column pair ci) — the framing offsets of the step's fused
// buffer — and returns their sum.
func (mp *MultiPlan) frame(sizes []int, ri, ci int) (total int) {
	for a := range mp.arrays {
		sizes[a] = mp.arrays[a].payloadSize(ri, ci)
		total += sizes[a]
	}
	return total
}

// ExecuteStats redistributes every array at once. srcData holds the
// caller's local piece of each array in plan order (entries may be nil on
// ranks outside the source grid or with empty local pieces) and is only
// read; the result holds the new local pieces (nil entries on ranks
// outside the destination grid), taken from the mpi float arena and owned
// by the caller, plus the rank's traffic. A new piece is not cleared: the
// block classes of the inbound steps tile it exactly.
//
// Collective over c: ranks 0..P-1 of c hold the source grid (row-major)
// and ranks 0..Q-1 the destination grid. Every float is copied as few
// times as the distributed-memory model allows: a remote float twice
// (packed into a wire buffer from the arena that is handed to the receiver
// by reference, unpacked out of it), a float the rank keeps across the resize
// once (block row to block row). The rank first packs and posts every send
// — sends are eager and the mailbox is unbounded, so nothing is gained by
// posting receives ahead of them — then waits at a barrier for every rank
// to have posted its sends, then receives step by step, unpacking each
// delivered buffer and returning it to the arena: the sender never
// touches a wire buffer after Send, so the receiver, once it has unpacked,
// is its only owner. The barrier puts every wire buffer of the execution
// in flight at once, so the first execution stocks the arena with all the
// buffers any later one can need; without it, how many are in flight
// depends on how the ranks are scheduled, and a later execution could
// still find the arena one short and allocate. A MultiPlan is immutable,
// so one plan may be executed by every rank concurrently.
func (mp *MultiPlan) ExecuteStats(c *mpi.Comm, srcData [][]float64) ([][]float64, Stats) {
	base := &mp.arrays[0]
	me := c.Rank()
	p := base.src.Grid.Count()
	q := base.dst.Grid.Count()
	if c.Size() < p || c.Size() < q {
		panic(fmt.Sprintf("redistrib: communicator size %d smaller than grids (%d src, %d dst)", c.Size(), p, q))
	}
	if len(srcData) != len(mp.arrays) {
		panic(fmt.Sprintf("redistrib: %d source slices for %d fused arrays", len(srcData), len(mp.arrays)))
	}
	inSrc := me < p
	inDst := me < q
	dst := make([][]float64, len(mp.arrays))
	for a := range mp.arrays {
		arr := &mp.arrays[a]
		if inSrc && len(srcData[a]) != arr.src.LocalSize(me) {
			panic(fmt.Sprintf("redistrib: rank %d array %d has %d floats, layout expects %d",
				me, a, len(srcData[a]), arr.src.LocalSize(me)))
		}
		if inDst {
			dst[a] = mpi.GetFloats(arr.dst.LocalSize(me))
		}
	}

	var stats Stats
	var sr, sc, dr, dc int
	if inSrc {
		sr, sc = base.src.Coords(me)
	}
	if inDst {
		dr, dc = base.dst.Coords(me)
	}
	nc := len(mp.colSendTo)
	qr, qc := base.dst.Grid.Rows, base.dst.Grid.Cols
	sizes := make([]int, len(mp.arrays))

	// Outbound: one message per communicating pair per step carries every
	// array's blocks back to back; blocks this rank keeps go straight from
	// the old piece to the new one.
	for tr := 0; inSrc && tr < len(mp.rowSendTo); tr++ {
		toRow := mp.rowSendTo[tr][sr]
		if toRow < 0 {
			continue
		}
		ri := sr*qr + toRow
		for tc := 0; tc < nc; tc++ {
			toCol := mp.colSendTo[tc][sc]
			if toCol < 0 {
				continue
			}
			ci := sc*qc + toCol
			total := mp.frame(sizes, ri, ci)
			if total == 0 {
				continue
			}
			dest := base.dst.Rank(toRow, toCol)
			if dest == me {
				for a := range mp.arrays {
					mp.arrays[a].copyBlocks(dst[a], srcData[a], sc, dc, ri, ci)
				}
				stats.LocalCopies++
				stats.FloatsCopied += total
				continue
			}
			buf := mpi.GetFloats(total)[:0]
			for a := range mp.arrays {
				buf = mp.arrays[a].packAppend(buf, srcData[a], sc, ri, ci)
			}
			c.Send(dest, tagMulti+tr*nc+tc, buf)
			stats.MessagesSent++
			stats.FloatsSent += total
		}
	}

	c.Barrier()

	// Inbound: unpack each delivered buffer at the per-array offsets both
	// sides derived from the layout tables, then recycle it.
	for tr := 0; inDst && tr < len(mp.rowRecvFrom); tr++ {
		fromRow := mp.rowRecvFrom[tr][dr]
		if fromRow < 0 {
			continue
		}
		ri := fromRow*qr + dr
		for tc := 0; tc < nc; tc++ {
			fromCol := mp.colRecvFrom[tc][dc]
			if fromCol < 0 {
				continue
			}
			ci := fromCol*qc + dc
			total := mp.frame(sizes, ri, ci)
			source := base.src.Rank(fromRow, fromCol)
			if total == 0 || source == me {
				continue
			}
			buf := c.RecvFloats(source, tagMulti+tr*nc+tc)
			if len(buf) != total {
				panic(fmt.Sprintf("redistrib: rank %d step %d: %d floats from rank %d, layout expects %d",
					me, tr*nc+tc, len(buf), source, total))
			}
			off := 0
			for a := range mp.arrays {
				mp.arrays[a].unpack(buf[off:off+sizes[a]], dst[a], dc, ri, ci)
				off += sizes[a]
			}
			mpi.PutFloats(buf)
			stats.MessagesRecv++
			stats.FloatsRecv += total
		}
	}
	return dst, stats
}

// payloadSize computes the exact number of floats the array exchanges for
// the block class (row pair ri, column pair ci), accounting for short edge
// blocks.
func (a *array) payloadSize(ri, ci int) int {
	total := 0
	for _, bi := range a.rowClass[ri] {
		h := a.src.BlockHeight(bi)
		for _, bj := range a.colClass[ci] {
			total += h * a.src.BlockWidth(bj)
		}
	}
	return total
}

// packAppend appends the block class's blocks from a source-local piece
// (grid column pcol) to buf in deterministic (bi, bj, row-major) order.
func (a *array) packAppend(buf, data []float64, pcol, ri, ci int) []float64 {
	l := a.src
	stride := l.LocalCols(pcol)
	for _, bi := range a.rowClass[ri] {
		h := l.BlockHeight(bi)
		li0 := (bi / l.Grid.Rows) * l.MB
		for _, bj := range a.colClass[ci] {
			w := l.BlockWidth(bj)
			lj0 := (bj / l.Grid.Cols) * l.NB
			for ii := 0; ii < h; ii++ {
				row := (li0 + ii) * stride
				buf = append(buf, data[row+lj0:row+lj0+w]...)
			}
		}
	}
	return buf
}

// unpack writes a packed block class into a destination-local piece (grid
// column pcol), mirroring packAppend's ordering.
func (a *array) unpack(buf, data []float64, pcol, ri, ci int) {
	l := a.dst
	stride := l.LocalCols(pcol)
	k := 0
	for _, bi := range a.rowClass[ri] {
		h := l.BlockHeight(bi)
		li0 := (bi / l.Grid.Rows) * l.MB
		for _, bj := range a.colClass[ci] {
			w := l.BlockWidth(bj)
			lj0 := (bj / l.Grid.Cols) * l.NB
			for ii := 0; ii < h; ii++ {
				row := (li0 + ii) * stride
				copy(data[row+lj0:row+lj0+w], buf[k:k+w])
				k += w
			}
		}
	}
}

// copyBlocks moves the block class of a rank that is both its source and
// its destination straight from its source-local piece to its
// destination-local piece: pack and unpack in one pass, one copy per block
// row, no wire buffer. spcol and dpcol are the rank's column coordinates in
// the source and destination grids.
func (a *array) copyBlocks(dst, src []float64, spcol, dpcol, ri, ci int) {
	s, d := a.src, a.dst
	sStride, dStride := s.LocalCols(spcol), d.LocalCols(dpcol)
	for _, bi := range a.rowClass[ri] {
		h := s.BlockHeight(bi)
		si0 := (bi / s.Grid.Rows) * s.MB
		di0 := (bi / d.Grid.Rows) * d.MB
		for _, bj := range a.colClass[ci] {
			w := s.BlockWidth(bj)
			sj0 := (bj / s.Grid.Cols) * s.NB
			dj0 := (bj / d.Grid.Cols) * d.NB
			for ii := 0; ii < h; ii++ {
				so := (si0+ii)*sStride + sj0
				do := (di0+ii)*dStride + dj0
				copy(dst[do:do+w], src[so:so+w])
			}
		}
	}
}
