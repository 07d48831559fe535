//go:build race

package mpi

// poisonRecycled makes PutFloats fill every returned buffer with NaN, so a
// rank that reads a buffer after it was recycled computes NaN instead of a
// plausible stale value. On only under the race detector.
const poisonRecycled = true
