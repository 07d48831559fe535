// Command reshaped is the ReSHAPE scheduler daemon: it manages a pool of
// processors, accepts job submissions over TCP, runs the submitted
// applications on its own message-passing runtime, and dynamically resizes
// them according to the Remap Scheduler policy.
//
// The daemon speaks the multiplexed rpc/v2 protocol with streaming job
// watches (see internal/rpc); a connection that does not open with its
// magic byte is refused.
//
// With -wal-dir set the control plane is durable: every scheduler input is
// journaled to a write-ahead log before it is acknowledged, snapshots are
// taken every -snapshot-every records, and a restarted daemon replays the
// directory to resume with every queued and running job intact (see
// internal/durability). Recovered running jobs are relaunched on their
// recovered allocations; rpc/v2 clients reconnect and resubscribe their
// watches on their own. Concurrent operations share disk flushes (group
// commit), and a failed write or flush stops the daemon with a non-zero
// exit rather than acknowledge anything the disk may not hold.
//
// Usage:
//
//	reshaped -addr 127.0.0.1:7077 -procs 16 -backfill
//	reshaped -procs 64 -arbiter benefit  # cluster-wide benefit-ranked arbitration
//	reshaped -procs 64 -wal-dir /var/lib/reshaped  # durable control plane
//	reshaped -procs 64 -arbiter fairshare -tenant-weights acme=3,beta=1 \
//	    -tenant-rate 50 -tenant-inflight 64   # multi-tenant fair share + quotas
//	reshaped -procs 64 -arbiter rebalance -rebalance-every 30s  # planned rebalancing
//
// An unknown -arbiter, or a flag that configures an arbiter the daemon is not
// running, is a startup error (exit 2) that creates no -wal-dir:
// -tenant-weights needs -arbiter fairshare, -rebalance-every needs
// -arbiter rebalance. So is a weight list with a malformed, non-finite,
// non-positive or repeated entry, a -procs below 1 and a negative
// -rebalance-every.
//
// SIGINT or SIGTERM stops the daemon cleanly: it closes the log and logs
// the rpc, apply-pipeline and journal counters.
//
// Submit jobs with reshape-submit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/durability"
	"repro/internal/rpc"
	"repro/internal/scheduler"
	"repro/internal/scheduler/fairshare"
	"repro/internal/scheduler/modes"
	sdk "repro/pkg/reshape"
)

// checkFlags refuses a pool with no processors, a mode modes.Build does not
// know, flags that configure an arbiter other than the selected one, a
// weight list fairshare.ParseWeights rejects and a negative planning
// interval: started anyway, the daemon would run a different scheduler
// than its command line says. It runs before -wal-dir is opened, so a
// refused command line leaves no directory behind.
func checkFlags(procs int, arb, tenantWeights string, rebalanceEvery time.Duration) error {
	if procs < 1 {
		return fmt.Errorf("reshaped: -procs %d: the pool needs at least one processor", procs)
	}
	if _, err := modes.Build(arb, modes.Inputs{}); err != nil {
		return fmt.Errorf("reshaped: -arbiter: %w", err)
	}
	if tenantWeights != "" && arb != "fairshare" {
		return fmt.Errorf("reshaped: -tenant-weights needs -arbiter fairshare (have -arbiter %s)", arb)
	}
	if _, err := fairshare.ParseWeights(tenantWeights); err != nil {
		return fmt.Errorf("reshaped: -tenant-weights: %w", err)
	}
	if rebalanceEvery < 0 {
		return fmt.Errorf("reshaped: -rebalance-every %v is negative", rebalanceEvery)
	}
	if rebalanceEvery != 0 && arb != "rebalance" {
		return fmt.Errorf("reshaped: -rebalance-every needs -arbiter rebalance (have -arbiter %s)", arb)
	}
	return nil
}

// arbiterUsage is the -arbiter flag's help: every mode modes.Build knows,
// with what it does.
func arbiterUsage() string {
	var b strings.Builder
	b.WriteString("resize arbitration:")
	for i, m := range modes.Names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " %s (%s)", m, modes.Summary(m))
	}
	b.WriteString("; fairshare reads -tenant-weights, rebalance -rebalance-every")
	return b.String()
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "listen address")
	procs := flag.Int("procs", 16, "number of processors in the pool")
	backfill := flag.Bool("backfill", true, "enable simple backfill in addition to FCFS")
	arb := flag.String("arbiter", "fcfs", arbiterUsage())
	tenantWeights := flag.String("tenant-weights", "",
		"fair-share weights as tenant=weight pairs, e.g. \"acme=3,beta=1\" (unlisted tenants weigh 1; requires -arbiter fairshare)")
	tenantRate := flag.Float64("tenant-rate", 0,
		"admission control: sustained requests/sec allowed per tenant (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0,
		"admission control: per-tenant burst size (0 = derived from -tenant-rate)")
	tenantInflight := flag.Int("tenant-inflight", 0,
		"admission control: concurrent in-flight requests allowed per tenant, blocking waits and watches included (0 = unlimited)")
	connRate := flag.Float64("conn-rate", 0,
		"admission control: sustained requests/sec allowed per rpc/v2 connection (0 = unlimited)")
	connBurst := flag.Int("conn-burst", 0,
		"admission control: per-connection burst size (0 = derived from -conn-rate)")
	connInflight := flag.Int("conn-inflight", 0,
		"admission control: concurrent in-flight requests allowed per rpc/v2 connection (0 = unlimited)")
	rebalanceEvery := flag.Duration("rebalance-every", 0,
		"global-rebalancer planning-tick interval (0 = ticks disabled; requires -arbiter rebalance)")
	walDir := flag.String("wal-dir", "",
		"write-ahead-log directory for a durable control plane (empty = volatile scheduler state)")
	snapshotEvery := flag.Uint64("snapshot-every", 10000,
		"snapshot the scheduler state and truncate the log every N journaled records (0 = never)")
	walSync := flag.String("wal-sync", "always",
		"journal fsync policy: always (no acknowledged op can be lost), interval (batched, bounded loss window on machine crash) or none (page-cache only)")
	flag.Parse()

	// The arbiter is configuration, not journaled state: a recovering
	// daemon must install the same arbitration the previous process ran
	// before any journal record replays through the core.
	if err := checkFlags(*procs, *arb, *tenantWeights, *rebalanceEvery); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Both calls are checked above.
	weights, _ := fairshare.ParseWeights(*tenantWeights)
	arbitration, _ := modes.Build(*arb, modes.Inputs{Weights: weights})

	var (
		core  *scheduler.Core
		srv   *scheduler.Server
		store *durability.Store
	)
	starter := func(j *scheduler.Job) { startJob(srv, j) }

	if *walDir == "" {
		core = scheduler.NewCore(*procs, *backfill)
		core.SetArbiter(arbitration)
		srv = scheduler.NewServerCore(core, starter)
	} else {
		policy, err := durability.ParseSyncPolicy(*walSync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reshaped: %v\n", err)
			os.Exit(2)
		}
		st, rec, err := durability.Open(*walDir, durability.Options{
			SnapshotEvery: *snapshotEvery,
			Sync:          policy,
			// core and srv are both assigned below, before the journal hook
			// (and therefore Capture) can run.
			Capture: func() (*scheduler.CoreState, uint64) { return core.PersistState(), srv.Seq() },
			Logf:    log.Printf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "reshaped: open wal: %v\n", err)
			os.Exit(1)
		}
		store = st
		if rec.TornTail {
			log.Printf("reshaped: discarded a torn (never acknowledged) record at the log tail")
		}
		recovered, info, err := rec.Restore(func(cs *scheduler.CoreState) (*scheduler.Core, error) {
			var c *scheduler.Core
			if cs == nil {
				c = scheduler.NewCore(*procs, *backfill)
			} else {
				var err error
				if c, err = scheduler.NewCoreFromState(cs); err != nil {
					return nil, err
				}
				if cs.Total != *procs {
					log.Printf("reshaped: recovered pool has %d processors; ignoring -procs %d", cs.Total, *procs)
				}
			}
			c.SetArbiter(arbitration)
			return c, nil
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "reshaped: recover wal: %v\n", err)
			os.Exit(1)
		}
		// Restore handed the core the store's commit barrier, so the server
		// runs a committer that flushes and acknowledges behind its apply
		// goroutine.
		core = recovered
		core.SetJournal(store.Append)
		srv = scheduler.NewServerRecovered(core, info.Seq, info.Clock, starter)
		if info.Recovered {
			log.Printf("reshaped: recovered %d job(s) from %s (%d record(s) replayed, clock %.3fs)",
				info.Jobs, *walDir, info.Replayed, info.Clock)
			// This daemon runs its jobs in-process, so the previous
			// process's workers died with it: relaunch every recovered
			// running job on its recovered allocation.
			for _, j := range srv.RelaunchRunning() {
				log.Printf("reshaped: relaunched job %d (%s) on %v", j.ID, j.Spec.Name, j.Topo)
			}
		}
	}

	// Registered before the daemon says it listens, so that a stop sent as
	// soon as it does still shuts down cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	limits := rpc.Limits{
		TenantRate: *tenantRate, TenantBurst: *tenantBurst, TenantInflight: *tenantInflight,
		ConnRate: *connRate, ConnBurst: *connBurst, ConnInflight: *connInflight,
	}
	rpcSrv, err := rpc.Serve(*addr, srv, rpc.WithLogf(log.Printf), rpc.WithLimits(limits))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	durable := "volatile"
	if store != nil {
		durable = fmt.Sprintf("wal %s (snapshot every %d, fsync %s)", *walDir, *snapshotEvery, *walSync)
	}
	log.Printf("reshaped: %d processors, %s arbitration, %s, listening on %s (rpc/v2)",
		core.Total, *arb, durable, rpcSrv.Addr())
	if limits != (rpc.Limits{}) {
		log.Printf("reshaped: admission control on (tenant %.3g req/s burst %d inflight %d; conn %.3g req/s burst %d inflight %d)",
			limits.TenantRate, limits.TenantBurst, limits.TenantInflight,
			limits.ConnRate, limits.ConnBurst, limits.ConnInflight)
	}

	stopTicks := make(chan struct{})
	if *rebalanceEvery > 0 {
		go func() {
			t := time.NewTicker(*rebalanceEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := srv.Rebalance(context.Background()); err != nil {
						log.Printf("reshaped: rebalance tick: %v", err)
					}
				case <-stopTicks:
					return
				}
			}
		}()
		log.Printf("reshaped: global rebalancer ticking every %s", *rebalanceEvery)
	}

	var walFailed <-chan struct{} // stays nil, and never ready, without a WAL
	if store != nil {
		walFailed = store.Failed()
	}
	failed := false
	select {
	case <-sig:
	case <-walFailed:
		// Fail-stop: ops applied since the last good flush may not be on
		// disk, and the journal now refuses every mutation. Nothing is
		// retried; a restart recovers exactly what the disk holds.
		log.Printf("reshaped: %v; exiting so a restart recovers from the log", store.Err())
		failed = true
	}
	close(stopTicks)
	st := rpcSrv.Stats()
	log.Printf("reshaped: shutting down (%d conns, %d requests, %d watches, %d malformed, %d shed, %d reply frames in %d writes)",
		st.Conns, st.Requests, st.Watches, st.Malformed, st.Shed, st.FramesOut, st.Flushes)
	_ = rpcSrv.Close()
	log.Printf("reshaped: %s", applySummary(srv.Stats()))
	if store != nil {
		if err := store.Close(); err != nil {
			log.Printf("reshaped: close wal: %v", err)
		}
		log.Printf("reshaped: %s", walSummary(store.Stats()))
	}
	if failed {
		os.Exit(1)
	}
}

// walSummary is the shutdown line for the journal's counters.
func walSummary(ws durability.Stats) string {
	line := fmt.Sprintf("wal: %d appends, %d fsyncs", ws.Appends, ws.Syncs)
	if ws.Syncs > 0 {
		line += fmt.Sprintf(" (mean batch %.2f, largest %d)", float64(ws.Appends)/float64(ws.Syncs), ws.MaxBatch)
	}
	return line
}

// applySummary is the shutdown line for the scheduler pipeline's counters.
func applySummary(ps scheduler.Stats) string {
	line := fmt.Sprintf("apply: %d ops in %d batches", ps.Ops, ps.Batches)
	if ps.Batches > 0 {
		line += fmt.Sprintf(" (mean batch %.2f, largest %d)", float64(ps.Ops)/float64(ps.Batches), ps.MaxBatch)
	}
	return line
}

// startJob launches one allocated job through the application SDK.
func startJob(srv *scheduler.Server, j *scheduler.Job) {
	log.Printf("starting job %d (%s) on %v", j.ID, j.Spec.Name, j.Topo)
	// The job runs through the application SDK; its lifecycle events
	// surface the resize trajectory in the daemon log.
	logger := sdk.Logger(func(ev sdk.Event) {
		if ev.Kind == sdk.EventResize {
			log.Printf("job %d (%s) resized %v -> %v (%.4fs redistribution)",
				j.ID, j.Spec.Name, ev.From, ev.Topo, ev.Seconds)
		}
	})
	if err := apps.Launch(srv, j.ID, j.Topo, apps.SpecConfig(j.Spec), sdk.WithLogger(logger)); err != nil {
		log.Printf("job %d failed: %v", j.ID, err)
		_ = srv.JobError(context.Background(), j.ID)
		return
	}
	log.Printf("job %d (%s) finished", j.ID, j.Spec.Name)
}
