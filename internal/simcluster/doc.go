// Package simcluster is the virtual-time discrete-event simulation of a
// ReSHAPE-managed cluster. It replays job mixes against the calibrated
// performance models of package perfmodel while driving the *same*
// scheduler policy code (scheduler.Core) that the real runtime uses, so the
// workload experiments of the paper (Figures 3-5, Tables 4-5) run at full
// System X scale in milliseconds of wall clock.
//
// Virtual time is the simulator's own timeline, a binary heap of the
// timestamped resize points and resize completions of jobs in flight and
// the next rebalance tick, popped one at a time with FIFO ordering among
// equal timestamps, so identical inputs replay to byte-identical traces.
// Arrivals stream from the arrival-ordered mix beside it and win every
// tie, so the heap never holds more than the running jobs plus one tick.
// WithCore hands the simulator a prepared scheduler.Core (untraced for the
// 100k- and 1M-job runs of BenchmarkSchedulerThroughput, journaled for the
// crash tests), and golden files pin the W1/W2 schedules and every arbiter
// decision.
//
// Three scheduling modes reproduce the paper's comparisons: Static pins
// every job to its initial allocation; Dynamic resizes with the
// message-passing redistribution cost model; DynamicCheckpoint resizes with
// the single-node file-based checkpointing cost model.
package simcluster
