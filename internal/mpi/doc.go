// Package mpi implements a small message-passing runtime in the spirit of
// MPI-2, with ranks executing as goroutines inside a single process.
//
// The runtime provides the subset of MPI that the ReSHAPE paper's resizing
// library and applications depend on:
//
//   - communicators with ranks, contexts and tags, Split and Sub, and
//     SplitGrid, which carves a process grid's row and column
//     communicators from one broadcast
//   - point-to-point Send/Recv: SendFloats copies the payload, Send hands
//     it over by reference (the sender gives up the value)
//   - collectives (Barrier, Bcast, Reduce, Allreduce, GatherFloats,
//     AllgatherFloats, Alltoallv); Bcast and Alltoallv pass their payloads
//     by reference, so the caller of Alltoallv gives up sendbufs and
//     receivers only read what they get
//   - dynamic process management: Spawn (MPI_Comm_spawn_multiple) and
//     intercommunicator Merge (MPI_Intercomm_merge)
//   - a process-wide float arena (GetFloats, PutFloats): size-classed free
//     lists the garbage collector never empties, capped at arenaMaxBytes,
//     from which the data plane takes the buffers it moves and to which
//     each buffer's single owner returns it once no rank reads it again
//   - world abort: a rank that returns an error or panics aborts its World,
//     so peers blocked in a receive unwind instead of hanging (MPI_Abort)
//
// Sends are eager and the mailbox is unbounded: Send never blocks, so
// communication schedules in which a rank both sends and receives in the
// same step cannot deadlock, and posting a receive ahead of the matching
// send gains nothing. Message order between a fixed (sender, receiver, tag,
// context) tuple is preserved. A communicator holds its members' mailboxes,
// so a send takes only the destination mailbox's lock.
package mpi
