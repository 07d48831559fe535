package mpi

import "fmt"

// Intercomm connects two disjoint groups of ranks: a local group (the side
// the caller belongs to) and a remote group. It mirrors the MPI
// intercommunicator produced by MPI_Comm_spawn_multiple, and can be merged
// into a single intracommunicator like MPI_Intercomm_merge.
type Intercomm struct {
	local      *Comm
	remote     []*proc
	mergedCtx  int  // pre-agreed context for the merged intracommunicator
	localFirst bool // true on the parent side: parents precede children after Merge
}

// Merge combines both groups into one intracommunicator. On the side created
// with localFirst (the spawning parents), local ranks come first, followed by
// the remote (spawned) ranks, exactly as the ReSHAPE resize library expects
// when growing a processor set. Merge is purely local: the merged context was
// agreed at spawn time, so no traffic is needed.
func (ic *Intercomm) Merge() *Comm {
	var procs []*proc
	var rank int
	if ic.localFirst {
		procs = append(append([]*proc{}, ic.local.procs...), ic.remote...)
		rank = ic.local.rank
	} else {
		procs = append(append([]*proc{}, ic.remote...), ic.local.procs...)
		rank = len(ic.remote) + ic.local.rank
	}
	return &Comm{world: ic.local.world, proc: ic.local.proc, ctx: ic.mergedCtx, procs: procs, rank: rank}
}

// spawnInfo is the control message broadcast to all parents during Spawn.
type spawnInfo struct {
	children  []*proc
	childCtx  int
	mergedCtx int
}

// Spawn collectively creates k new ranks running fn and returns the
// parent-side intercommunicator on every parent rank. Each child receives a
// child-side intercommunicator whose local group is the k children (the
// child "world"), mirroring MPI_Comm_get_parent. The world waits for
// spawned ranks before Run returns.
func (c *Comm) Spawn(k int, fn func(*Intercomm) error) *Intercomm {
	if k <= 0 {
		panic(fmt.Sprintf("mpi: Spawn needs at least 1 child, got %d", k))
	}
	var info spawnInfo
	if c.rank == 0 {
		children, childCtx := c.world.allocProcs(k)
		info = spawnInfo{
			children:  children,
			childCtx:  childCtx,
			mergedCtx: c.world.allocCtx(1),
		}
	}
	info = c.Bcast(0, info).(spawnInfo)

	if c.rank == 0 {
		for i, p := range info.children {
			childComm := &Comm{
				world: c.world,
				proc:  p,
				ctx:   info.childCtx,
				procs: info.children,
				rank:  i,
			}
			childIC := &Intercomm{
				local:      childComm,
				remote:     c.procs,
				mergedCtx:  info.mergedCtx,
				localFirst: false,
			}
			c.world.launch("spawned rank", childComm, func(*Comm) error { return fn(childIC) })
		}
	}
	return &Intercomm{
		local:      c,
		remote:     info.children,
		mergedCtx:  info.mergedCtx,
		localFirst: true,
	}
}
