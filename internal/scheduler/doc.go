// Package scheduler implements ReSHAPE's application scheduling and
// monitoring module: job queueing with FCFS and simple backfill, the Remap
// Scheduler's expand/shrink policy, and the Performance Profiler that
// records per-configuration iteration times and redistribution costs.
//
// # Architecture
//
// The package is split into a passive Core (a clock-independent state
// machine driven by explicit timestamps, shared between the real runtime
// and the virtual-time cluster simulator) and an active Server that wraps
// the Core with the five concurrent components described in the paper
// (System Monitor, Application Scheduler, Job Startup, Remap Scheduler,
// Performance Profiler).
//
// The Core is engineered for workloads far beyond the paper's five-job
// mixes:
//
//   - Event loop. EventQueue is a deterministic priority queue of
//     timestamped events (arrival, resize point, resize completion), and
//     Engine dispatches them through per-kind handlers with FIFO ordering
//     among equal timestamps. The cluster simulator (package simcluster)
//     drives its virtual time through this loop, so 100k-job traces replay
//     byte-identically in seconds.
//
//   - Indexed wait queue. The queue is a priority heap plus per-need
//     buckets (jobQueue): finding the FCFS head, the best backfill fit, or
//     the queue-pressure window handed to policies is O(log n) instead of
//     a linear scan per scheduling pass.
//
//   - One idle-processor counter. The paper's single pool of idle
//     processors is a plain int on the Core; Core calls are serialized by
//     their caller (the Server's lock, or the single-threaded simulator),
//     so it needs no lock.
//
// Decision-making at resize points flows through the arbitration layer
// (arbiter.go): each Contact assembles a ClusterSnapshot — idle pool,
// priority/age-annotated queued window, lazy access to every running
// job's profile — and hands it to an Arbiter. The default PolicyArbiter
// narrows the snapshot to the published single-job RemapInput, pinned
// bit-identical to the pre-arbiter path; package
// internal/scheduler/arbiter provides the cluster-wide benefit-ranked
// implementation (coordinated multi-job shrink, starvation aging).
//
// The pre-refactor linear-scan core survives as recorded outputs: golden
// files under testdata/ hold Core to its answers on seeded op sequences and
// on the paper's W1/W2, and queue-level tests hold the indexed queue's
// head, window and backfill to a full sort and an in-order scan.
// See DESIGN.md at the repository root for the full system picture.
package scheduler
