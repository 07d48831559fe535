package apps

import (
	"math"
	"sync/atomic"

	"repro/internal/blacs"
	"repro/internal/mpi"
)

// Master-worker message tags.
const (
	tagMWRequest = 7000
	tagMWAssign  = 7001
)

// MasterWorkerRound executes one outer iteration of the paper's synthetic
// master-worker application: `units` fixed-time work units are farmed out
// on demand by rank 0 (the master) to all other ranks in chunks of
// chunkSize. unitWork controls the fixed cost of one unit (inner spin
// iterations). It returns the number of units this rank processed. The
// application has no global data to redistribute, which is why Figure 3(b)
// shows no difference for it between checkpointing and ReSHAPE.
// Collective over the grid; a trailing barrier separates rounds so demand
// requests from the next round cannot reach the previous round's master
// loop. With a single processor the master does the work itself.
func MasterWorkerRound(ctx *blacs.Context, units, chunkSize, unitWork int) int {
	if !ctx.InGrid {
		return 0
	}
	comm := ctx.Comm
	if chunkSize <= 0 {
		chunkSize = 1
	}
	if comm.Size() == 1 {
		for u := 0; u < units; u++ {
			burnUnit(unitWork)
		}
		return units
	}

	done := 0
	if comm.Rank() == 0 {
		remaining := units
		active := comm.Size() - 1
		for active > 0 {
			_, src, _ := comm.Recv(mpi.AnySource, tagMWRequest)
			if remaining > 0 {
				chunk := chunkSize
				if chunk > remaining {
					chunk = remaining
				}
				remaining -= chunk
				comm.Send(src, tagMWAssign, chunk)
			} else {
				comm.Send(src, tagMWAssign, 0) // 0 units = no more work
				active--
			}
		}
	} else {
		for {
			comm.Send(0, tagMWRequest, struct{}{})
			v, _, _ := comm.Recv(0, tagMWAssign)
			chunk := v.(int)
			if chunk == 0 {
				break
			}
			for u := 0; u < chunk; u++ {
				burnUnit(unitWork)
			}
			done += chunk
		}
	}
	comm.Barrier()
	return done
}

// burnUnit performs a fixed amount of floating-point work; the result is
// folded into a shared sink (atomically — workers run concurrently) so the
// compiler cannot elide the loop.
func burnUnit(iters int) {
	s := 1.0
	for i := 0; i < iters; i++ {
		s += math.Sqrt(s)
	}
	mwSink.Store(math.Float64bits(s))
}

var mwSink atomic.Uint64
