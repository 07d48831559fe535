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
//     fit and the queued window handed to arbiters need no scan of the
//     queue. The running set's expandable and active-tenant indexes
//     are dirs too.
//
//   - One idle-processor counter. The paper's single pool of idle
//     processors is a plain int on the Core; Core calls are serialized by
//     their caller (the Server's lock, or the single-threaded simulator),
//     so it needs no lock.
//
// A Contact is decided on one of two paths. With no arbiter set, the
// default, the Policy (PaperPolicy unless SetPolicy replaces it) decides
// from a RemapInput: the caller's topology, chain and profile, the idle
// pool and HeadNeed, the queue head's processor need (0 when nothing
// waits), the three inputs of the paper's Remap Scheduler; no snapshot is
// built. With an Arbiter set (SetArbiter; arbiter.go), the Contact hands it
// a ClusterSnapshot: idle pool, priority/age-annotated queued window, lazy
// access to every running job's profile. ClusterSnapshot.RemapInput
// narrows a snapshot back to the policy's input, and
// TestPolicyArbiterMatchesPublishedDecide holds both paths to the published
// decision. Package internal/scheduler/arbiter provides the benefit-ranked
// arbiter (coordinated multi-job shrink, starvation aging).
// The pre-refactor linear-scan core survives as recorded outputs: golden
// files under testdata/ hold Core to its answers on seeded op sequences and
// on the paper's W1/W2, and queue-level tests hold the indexed queue's
// head, window and backfill to a full sort and an in-order scan.
// See DESIGN.md at the repository root for the full system picture.
package scheduler
