// Package resize implements ReSHAPE's resizing library (§3.2 of the
// paper): the machinery that lets a running application change the size of
// its processor set at resize points without being suspended.
//
// Most applications should not use this package directly: the public SDK
// in pkg/reshape wraps a Session in a lifecycle-driven App API
// (Init/Iterate plus optional OnResize/Checkpoint hooks) and drives the
// iterate/log/resize loop itself. This package is the underlying
// mechanism the SDK runs on.
//
// At a resize point the application calls Session.ResizeAveraged with its
// grid-averaged iteration time (the paper's "simple functional API"). The
// library then:
//
//  1. contacts the scheduler with the performance report
//     (contact_scheduler),
//  2. on an expand decision, spawns new ranks (MPI_Comm_spawn_multiple),
//     merges the intercommunicator into a grown intracommunicator, creates
//     a fresh grid context, and redistributes every registered global array
//     onto the new processor grid,
//  3. on a shrink decision, redistributes the arrays onto the surviving
//     prefix of ranks, carves a sub-communicator for them, rebuilds the
//     grid context, and retires the excess ranks,
//  4. reports the measured redistribution cost back to the scheduler so the
//     Performance Profiler can weigh future resizing decisions.
//
// All registered arrays move in one fused redistribution (one message per
// communicating processor pair per schedule step, every array's blocks on
// board — redistrib.MultiPlan), and the plans are cached per (from, to)
// topology pair, so repeated oscillation between the same grids pays the
// schedule-table construction once. Measured costs are additionally kept as
// perfmodel.RedistObservation records (see RedistObservations) to calibrate
// the analytic redistribution model against real executions.
//
// Replicated buffers registered with SetReplicated are owned by rank 0 at
// resize time: an expansion broadcasts rank 0's copies through the child
// bootstrap to every rank — newly spawned and pre-existing alike — and a
// shrink broadcasts them to the surviving ranks, so every topology change
// ends with identical replicated state everywhere.
//
// The advanced API (ContactScheduler, ExpandProcessors, ShrinkProcessors,
// RedistributeAll) exposes the individual stages of Figure 1(b).
package resize
