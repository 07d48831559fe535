// Package mpi implements a small message-passing runtime in the spirit of
// MPI-2, with ranks executing as goroutines inside a single process.
//
// The runtime provides the subset of MPI that the ReSHAPE paper's resizing
// library depends on:
//
//   - communicators with ranks, contexts and tags
//   - point-to-point Send/Recv: SendFloats/SendInts copy the payload, Send
//     hands it over by reference (the sender gives up the value)
//   - collectives (Barrier, Bcast, Reduce, Allreduce, Gather, Allgather,
//     Scatter, Alltoallv)
//   - dynamic process management: Spawn (MPI_Comm_spawn_multiple) and
//     intercommunicator Merge (MPI_Intercomm_merge)
//   - persistent communication requests (MPI_Send_init / MPI_Recv_init /
//     MPI_Start / MPI_Wait), used by the per-array redistribution Plan
//
// Sends are eager and the mailbox is unbounded: Send never blocks, so
// communication schedules in which a rank both sends and receives in the
// same step cannot deadlock, and posting a receive ahead of the matching
// send gains nothing — there is no Startall/Waitall batch. Message order
// between a fixed (sender, receiver, tag, context) tuple is preserved. A
// communicator holds its members' mailboxes, so a send takes only the
// destination mailbox's lock.
package mpi
