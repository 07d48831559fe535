// Package redistrib implements ReSHAPE's block-cyclic array redistribution
// between processor sets organized in 1-D or checkerboard (2-D) topologies
// — the data-movement machinery a job invokes when the Remap Scheduler
// grows or shrinks its processor allocation.
//
// The algorithm follows Park, Prasanna and Raghavendra ("Efficient
// Algorithms for Block-Cyclic Array Redistribution Between Processor Sets",
// IEEE TPDS 1999), as extended by the ReSHAPE paper: a table-based
// framework computes, for every global block, its source and destination
// processor (the initial-layout and final-layout tables); the generalized
// circulant matrix formalism then groups the transfers into contention-free
// communication steps in which every processor sends at most one message
// and receives at most one message.
//
// MultiPlan is the one executor. Every array sharing the (source grid,
// destination grid) pair rides one schedule execution — one message per
// communicating pair per step — so a k-array application pays 1/k of the
// per-array message count at every resize. It moves each float as few times
// as distributed memory allows: a float that changes rank is packed into a
// wire buffer from the mpi float arena, handed to the receiver by
// reference and unpacked out of it (two copies); a float the rank keeps
// goes block row to block row (one copy); and ExecuteStats takes the new
// pieces from the arena too, which is the one module that decides reuse.
// The ownership rule: a sender never touches a wire buffer after Send, and
// only the receiver, once it has unpacked, returns it to the arena. Tests
// check every execution against blockcyclic.Distribute.
//
// See DESIGN.md at the repository root for where redistribution sits in
// the resize pipeline.
package redistrib
