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
//   - Indexed wait queue. jobQueue files each job by priority, processor
//     need and (for a fair-share StartPicker) tenant, each in a dir: a few
//     sorted keys beside their buckets. The FCFS head, the best backfill
//     fit and the queue-pressure window handed to policies need no scan of
//     the queue. The running set's expandable and active-tenant indexes
//     are dirs too.
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
