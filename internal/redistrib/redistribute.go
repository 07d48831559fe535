package redistrib

import (
	"fmt"

	"repro/internal/blockcyclic"
	"repro/internal/mpi"
)

// tagData is the reserved tag for redistribution payloads. Every
// communicating pair exchanges exactly one message per Execute, and per-pair
// FIFO ordering keeps back-to-back executions (e.g. several arrays) correct.
const tagData = 9000

// Plan holds the precomputed tables for redistributing one block-cyclic
// layout to another: the per-dimension circulant schedules (the "destination
// processor table" of the paper) plus lookups from processor coordinates to
// per-step peers.
type Plan struct {
	Src, Dst blockcyclic.Layout

	rowSched, colSched [][]Pair
	// per step: sendTo[step][srcCoord] = dstCoord or -1; recvFrom inverse.
	rowSendTo, rowRecvFrom [][]int
	colSendTo, colRecvFrom [][]int
}

// NewPlan validates that the two layouts describe the same global array with
// the same blocking and builds the communication schedule tables.
func NewPlan(src, dst blockcyclic.Layout) (*Plan, error) {
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
	p := &Plan{
		Src:      src,
		Dst:      dst,
		rowSched: Schedule1D(src.Grid.Rows, dst.Grid.Rows),
		colSched: Schedule1D(src.Grid.Cols, dst.Grid.Cols),
	}
	p.rowSendTo, p.rowRecvFrom = peerTables(p.rowSched, src.Grid.Rows, dst.Grid.Rows)
	p.colSendTo, p.colRecvFrom = peerTables(p.colSched, src.Grid.Cols, dst.Grid.Cols)
	return p, nil
}

// peerTables converts a schedule into per-step coordinate lookups.
func peerTables(sched [][]Pair, p, q int) (sendTo, recvFrom [][]int) {
	sendTo = make([][]int, len(sched))
	recvFrom = make([][]int, len(sched))
	for t, step := range sched {
		sendTo[t] = make([]int, p)
		recvFrom[t] = make([]int, q)
		for i := range sendTo[t] {
			sendTo[t][i] = -1
		}
		for i := range recvFrom[t] {
			recvFrom[t][i] = -1
		}
		for _, pr := range step {
			sendTo[t][pr.Src] = pr.Dst
			recvFrom[t][pr.Dst] = pr.Src
		}
	}
	return sendTo, recvFrom
}

// Steps returns the number of communication steps in the combined 2-D
// schedule.
func (pl *Plan) Steps() int { return len(pl.rowSched) * len(pl.colSched) }

// Stats summarizes one rank's traffic during Execute.
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

// Add accumulates other into s (summing per-array or per-execution stats).
func (s *Stats) Add(other Stats) {
	s.MessagesSent += other.MessagesSent
	s.MessagesRecv += other.MessagesRecv
	s.FloatsSent += other.FloatsSent
	s.FloatsRecv += other.FloatsRecv
	s.LocalCopies += other.LocalCopies
	s.FloatsCopied += other.FloatsCopied
}

// Execute redistributes the caller's piece of the global array. Every rank
// of c participates: ranks 0..P-1 of the communicator hold the source grid
// (row-major) and must pass their local data; ranks 0..Q-1 form the
// destination grid and receive their new local piece (nil for ranks outside
// the destination grid). Transfers use persistent communication requests,
// one per schedule step, as in the paper.
func (pl *Plan) Execute(c *mpi.Comm, srcData []float64) []float64 {
	out, _ := pl.ExecuteStats(c, srcData)
	return out
}

// ExecuteStats is Execute plus per-rank traffic statistics.
func (pl *Plan) ExecuteStats(c *mpi.Comm, srcData []float64) ([]float64, Stats) {
	me := c.Rank()
	p := pl.Src.Grid.Count()
	q := pl.Dst.Grid.Count()
	if c.Size() < p || c.Size() < q {
		panic(fmt.Sprintf("redistrib: communicator size %d smaller than grids (%d src, %d dst)", c.Size(), p, q))
	}
	inSrc := me < p
	inDst := me < q
	if inSrc && len(srcData) != pl.Src.LocalSize(me) {
		panic(fmt.Sprintf("redistrib: rank %d source data has %d floats, layout expects %d",
			me, len(srcData), pl.Src.LocalSize(me)))
	}

	var stats Stats
	var dstData []float64
	if inDst {
		dstData = make([]float64, pl.Dst.LocalSize(me))
	}

	var sr, sc, dr, dc int
	if inSrc {
		sr, sc = pl.Src.Coords(me)
	}
	if inDst {
		dr, dc = pl.Dst.Coords(me)
	}

	for tr := range pl.rowSched {
		for tc := range pl.colSched {
			var selfBuf []float64

			// Send side of this step.
			if inSrc {
				toRow := pl.rowSendTo[tr][sr]
				toCol := pl.colSendTo[tc][sc]
				if toRow >= 0 && toCol >= 0 {
					rowBlocks := classBlocks(pl.Src.BlockRows(), pl.Src.Grid.Rows, sr, pl.Dst.Grid.Rows, toRow)
					colBlocks := classBlocks(pl.Src.BlockCols(), pl.Src.Grid.Cols, sc, pl.Dst.Grid.Cols, toCol)
					if len(rowBlocks) > 0 && len(colBlocks) > 0 {
						buf := pl.pack(srcData, sr, sc, rowBlocks, colBlocks)
						dest := pl.Dst.Rank(toRow, toCol)
						if dest == me {
							selfBuf = buf
							stats.LocalCopies++
							stats.FloatsCopied += len(buf)
						} else {
							req := c.SendInit(dest, tagData, buf)
							req.Start()
							req.Wait()
							stats.MessagesSent++
							stats.FloatsSent += len(buf)
						}
					}
				}
			}

			// Receive side of this step.
			if inDst {
				fromRow := pl.rowRecvFrom[tr][dr]
				fromCol := pl.colRecvFrom[tc][dc]
				if fromRow >= 0 && fromCol >= 0 {
					rowBlocks := classBlocks(pl.Src.BlockRows(), pl.Src.Grid.Rows, fromRow, pl.Dst.Grid.Rows, dr)
					colBlocks := classBlocks(pl.Src.BlockCols(), pl.Src.Grid.Cols, fromCol, pl.Dst.Grid.Cols, dc)
					size := pl.payloadSize(rowBlocks, colBlocks)
					if size > 0 {
						source := pl.Src.Rank(fromRow, fromCol)
						var buf []float64
						if source == me {
							buf = selfBuf
						} else {
							buf = make([]float64, size)
							req := c.RecvInit(source, tagData, buf)
							req.Start()
							req.Wait()
							stats.MessagesRecv++
							stats.FloatsRecv += size
						}
						pl.unpack(buf, dstData, dr, dc, rowBlocks, colBlocks)
					}
				}
			}
		}
	}
	return dstData, stats
}

// classBlocks returns the global block indices j (j mod p == s, j mod q == d)
// below nblocks — the rows of the paper's index tables belonging to one
// communicating pair.
func classBlocks(nblocks, p, s, q, d int) []int {
	var out []int
	for j := s; j < nblocks; j += p {
		if j%q == d {
			out = append(out, j)
		}
	}
	return out
}

// payloadSize computes the exact number of floats exchanged for a block
// class, accounting for short edge blocks.
func (pl *Plan) payloadSize(rowBlocks, colBlocks []int) int {
	total := 0
	for _, bi := range rowBlocks {
		h := pl.Src.BlockHeight(bi)
		for _, bj := range colBlocks {
			total += h * pl.Src.BlockWidth(bj)
		}
	}
	return total
}

// pack serializes the listed blocks from a source-local array in
// deterministic (bi, bj, row-major) order.
func (pl *Plan) pack(data []float64, prow, pcol int, rowBlocks, colBlocks []int) []float64 {
	buf := make([]float64, 0, pl.payloadSize(rowBlocks, colBlocks))
	return pl.packAppend(buf, data, prow, pcol, rowBlocks, colBlocks)
}

// packAppend is pack writing into an existing buffer — the fused multi-array
// engine appends every array's blocks for a step into one wire buffer.
func (pl *Plan) packAppend(buf, data []float64, prow, pcol int, rowBlocks, colBlocks []int) []float64 {
	l := pl.Src
	stride := l.LocalCols(pcol)
	for _, bi := range rowBlocks {
		h := l.BlockHeight(bi)
		li0 := (bi / l.Grid.Rows) * l.MB
		for _, bj := range colBlocks {
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

// unpack writes a packed buffer into a destination-local array, mirroring
// pack's ordering.
func (pl *Plan) unpack(buf, data []float64, prow, pcol int, rowBlocks, colBlocks []int) {
	l := pl.Dst
	stride := l.LocalCols(pcol)
	k := 0
	for _, bi := range rowBlocks {
		h := l.BlockHeight(bi)
		li0 := (bi / l.Grid.Rows) * l.MB
		for _, bj := range colBlocks {
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

// copyBlocks moves the listed blocks of a rank that is both their source and
// their destination straight from its source-local array to its
// destination-local array: pack and unpack in one pass, one copy per block
// row, no wire buffer. spcol and dpcol are the rank's column coordinates in
// the source and destination grids.
func (pl *Plan) copyBlocks(dst, src []float64, spcol, dpcol int, rowBlocks, colBlocks []int) {
	s, d := pl.Src, pl.Dst
	sStride, dStride := s.LocalCols(spcol), d.LocalCols(dpcol)
	for _, bi := range rowBlocks {
		h := s.BlockHeight(bi)
		si0 := (bi / s.Grid.Rows) * s.MB
		di0 := (bi / d.Grid.Rows) * d.MB
		for _, bj := range colBlocks {
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

// Redistribute is the one-shot convenience wrapper: it builds a Plan and
// executes it. See Plan.Execute for the calling convention.
func Redistribute(c *mpi.Comm, src blockcyclic.Layout, srcData []float64, dst blockcyclic.Layout) ([]float64, error) {
	pl, err := NewPlan(src, dst)
	if err != nil {
		return nil, err
	}
	return pl.Execute(c, srcData), nil
}
