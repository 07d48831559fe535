package mpi

import (
	"math"
	"math/bits"
	"sync"
)

// arenaMaxBytes bounds the bytes of capacity the float arena keeps on its
// free lists: about one and a half times the 87 MB the repository
// benchmark's app-resize workload (six applications, each toured over up
// to nine ranks) keeps there at its peak, 92 MB when traced, with no
// start-over. A buffer larger than the bound is never kept.
const arenaMaxBytes = 128 << 20

// arena is the process-wide store of float buffers the data plane moves:
// redistribution wire buffers and pieces, the applications' working
// copies and packed exchange buffers. It is the one place that decides
// reuse: a redistribution takes every new piece from it and returns each
// piece it moved out of at once. Buffers are kept in power-of-two
// size classes — free[k] holds buffers whose capacity is in [2^k, 2^(k+1))
// — on plain free lists, which, unlike a sync.Pool, the garbage collector
// never empties.
//
// The ownership rule: a buffer has one owner at a time, and only that
// owner returns it, and only once no reader can touch it again. A buffer
// handed to another rank by reference (Send, Alltoallv, Bcast) changes
// owner with it; a buffer several ranks read is returned only after a
// collective that every reader has provably passed.
var arena struct {
	mu    sync.Mutex
	free  [bits.UintSize][][]float64
	bytes int // capacity bytes on the free lists, at most arenaMaxBytes
}

// GetFloats returns a buffer of length n from the process-wide arena,
// allocating one only when the arena has none of n's size class. The
// contents are unspecified — a recycled buffer is not cleared — so the
// caller must overwrite every float it reads. The caller owns the buffer
// and may return it with PutFloats.
func GetFloats(n int) []float64 {
	if n <= 0 {
		return []float64{}
	}
	k := bits.Len(uint(n - 1))
	arena.mu.Lock()
	if l := arena.free[k]; len(l) > 0 {
		buf := l[len(l)-1]
		l[len(l)-1] = nil
		arena.free[k] = l[:len(l)-1]
		arena.bytes -= 8 * cap(buf)
		arena.mu.Unlock()
		return buf[:n]
	}
	arena.mu.Unlock()
	return make([]float64, n, 1<<k)
}

// PutFloats returns buf to the arena. Only buf's owner may return it, and
// only once nothing — on any rank — reads or writes it again; the buffer
// may come back from any later GetFloats. A buffer that would take the
// arena past arenaMaxBytes empties it first, leaving the buffers it held
// to the collector. Under the race detector every returned buffer is
// filled with NaN, so a read after recycling shows up in the result.
func PutFloats(buf []float64) {
	c := cap(buf)
	if c == 0 {
		return
	}
	buf = buf[:c]
	if poisonRecycled {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}
	if 8*c > arenaMaxBytes {
		return
	}
	k := bits.Len(uint(c)) - 1
	arena.mu.Lock()
	if arena.bytes+8*c > arenaMaxBytes {
		// Full: start over, so buffers of sizes nobody asks for any more
		// cannot keep the room from the sizes in use.
		clear(arena.free[:])
		arena.bytes = 0
	}
	arena.free[k] = append(arena.free[k], buf)
	arena.bytes += 8 * c
	arena.mu.Unlock()
}
