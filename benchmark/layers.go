package main

import (
	"strings"
)

// perLayerMetricDefs are the metrics of single layers, printed by a traced
// run. Two kinds share the table:
//
//   - shares (%) and counts measured inside the traced workload, through the
//     seams the layers expose. They are 0 on a workload that bypasses the
//     layer, which is the point: they show what a workload isolates.
//   - the ladder (ladder.go): absolute costs from direct calls into each
//     layer on small seeded inputs, the same on every workload.
//
// README.md says which end-to-end metric each should move, on which
// workload.
var perLayerMetricDefs = []metricDef{
	// durability
	{Name: "durability.busy_pct", Unit: "%", Better: "lower"},
	{Name: "durability.append_share_pct", Unit: "%", Better: "lower"},
	{Name: "durability.appends", Unit: "count", Better: "lower"},
	{Name: "durability.snapshots", Unit: "count", Better: "lower"},
	{Name: "durability.append_sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "durability.append_sync_p99_us", Unit: "us", Better: "lower"},
	{Name: "durability.append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "durability.fsync_share_pct", Unit: "%", Better: "lower"},
	{Name: "durability.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "durability.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "durability.recover_open_ms", Unit: "ms", Better: "lower"},
	{Name: "durability.recover_restore_ms", Unit: "ms", Better: "lower"},
	{Name: "durability.replayed", Unit: "count", Better: "lower"},
	// rpc and the reshape client
	{Name: "rpc.wire_share_pct", Unit: "%", Better: "lower"},
	{Name: "rpc.requests", Unit: "count", Better: "lower"},
	{Name: "rpc.shed", Unit: "count", Better: "lower"},
	{Name: "rpc.malformed", Unit: "count", Better: "lower"},
	{Name: "rpc.codec_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.codec_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "rpc.frame_bytes", Unit: "B", Better: "lower"},
	{Name: "reshape.dials", Unit: "count", Better: "lower"},
	{Name: "reshape.call_us", Unit: "us", Better: "lower"},
	{Name: "reshape.call_p99_us", Unit: "us", Better: "lower"},
	{Name: "reshape.wire_overhead_us", Unit: "us", Better: "lower"},
	// scheduler
	{Name: "scheduler.core_share_pct", Unit: "%", Better: "lower"},
	{Name: "scheduler.lock_wait_share_pct", Unit: "%", Better: "lower"},
	{Name: "scheduler.contacts", Unit: "count", Better: "higher"},
	{Name: "scheduler.expands", Unit: "count", Better: "higher"},
	{Name: "scheduler.shrinks", Unit: "count", Better: "higher"},
	{Name: "scheduler.resize_ratio_pct", Unit: "%", Better: "higher"},
	{Name: "scheduler.queue_len_max", Unit: "count", Better: "lower"},
	{Name: "scheduler.watch_events", Unit: "count", Better: "higher"},
	{Name: "scheduler.watch_lost", Unit: "count", Better: "lower"},
	{Name: "scheduler.server_inproc_us", Unit: "us", Better: "lower"},
	{Name: "scheduler.core_apply_ns", Unit: "ns", Better: "lower"},
	// simulator, generator and the arbiters
	{Name: "simcluster.engine_share_pct", Unit: "%", Better: "lower"},
	{Name: "simcluster.alloc_mb_per_kjob", Unit: "MB", Better: "lower"},
	{Name: "simcluster.gc_pause_share_pct", Unit: "%", Better: "lower"},
	{Name: "simcluster.makespan", Unit: "sim_s", Better: "lower"},
	{Name: "simcluster.queue_wait_p99", Unit: "sim_s", Better: "lower"},
	{Name: "simcluster.ns_per_contact", Unit: "ns", Better: "lower"},
	{Name: "simcluster.scaling_ratio", Unit: "ratio", Better: "higher"},
	{Name: "workload.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "arbiter.decide_share_pct", Unit: "%", Better: "lower"},
	{Name: "arbiter.calls", Unit: "count", Better: "lower"},
	{Name: "arbiter.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "arbiter.decide_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "fairshare.pick_share_pct", Unit: "%", Better: "lower"},
	{Name: "fairshare.pick_calls", Unit: "count", Better: "lower"},
	{Name: "fairshare.pick_start_ns", Unit: "ns", Better: "lower"},
	{Name: "rebalance.plan_share_pct", Unit: "%", Better: "lower"},
	{Name: "rebalance.ticks", Unit: "count", Better: "lower"},
	{Name: "rebalance.plan_ms", Unit: "ms", Better: "lower"},
	// data plane
	{Name: "redistrib.execute_share_pct", Unit: "%", Better: "lower"},
	{Name: "redistrib.msgs_per_resize", Unit: "count", Better: "lower"},
	{Name: "redistrib.mb_per_resize", Unit: "MB", Better: "lower"},
	{Name: "redistrib.copied_share_pct", Unit: "%", Better: "higher"},
	{Name: "redistrib.steps", Unit: "count", Better: "lower"},
	{Name: "redistrib.plan_build_us", Unit: "us", Better: "lower"},
	{Name: "redistrib.execute_expand_ms", Unit: "ms", Better: "lower"},
	{Name: "redistrib.execute_shrink_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.spawn_merge_share_pct", Unit: "%", Better: "lower"},
	{Name: "mpi.p2p_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_us", Unit: "us", Better: "lower"},
	{Name: "mpi.spawn_merge_us", Unit: "us", Better: "lower"},
	{Name: "resize.session_share_pct", Unit: "%", Better: "lower"},
	{Name: "resize.contacts", Unit: "count", Better: "lower"},
	{Name: "resize.expand_ms", Unit: "ms", Better: "lower"},
	{Name: "resize.shrink_ms", Unit: "ms", Better: "lower"},
	{Name: "resize.session_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "sdk.iter_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "apps.compute_share_pct", Unit: "%", Better: "lower"},
	// the benchmark itself and the box
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.spans", Unit: "count", Better: "lower"},
	{Name: "env.fsync_probe_us", Unit: "us", Better: "lower"},
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// perLayerMetrics assembles a traced run's metrics: the ladder's rungs m,
// then the shares and counts of the traced rounds. plain holds the untraced
// rounds of the same invocation, the base of the tracing overhead.
func perLayerMetrics(w *workloadDef, env *runEnv, m map[string]float64, fsyncProbeUS float64, plain, traced *agg, tr *tracer) (map[string]float64, error) {
	// A share or count the workload never touches reads 0, not absent.
	for _, d := range perLayerMetricDefs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	m["env.fsync_probe_us"] = fsyncProbeUS
	m["bench.spans"] = float64(tr.spans())
	base, with := median(plain.perRound((*round).jobsPerS)), median(traced.perRound((*round).jobsPerS))
	m["bench.trace_overhead_pct"] = pct(base-with, base)

	for _, name := range []string{
		"rpc.requests", "rpc.shed", "rpc.malformed", "reshape.dials", "durability.appends", "durability.snapshots",
		"scheduler.contacts", "scheduler.expands", "scheduler.shrinks", "scheduler.watch_events",
		"scheduler.watch_lost", "resize.contacts",
	} {
		m[name] = traced.layerSum(name)
	}
	m["scheduler.queue_len_max"] = traced.layerMax("scheduler.queue_len_max")
	m["scheduler.resize_ratio_pct"] = pct(m["scheduler.expands"]+m["scheduler.shrinks"], m["scheduler.contacts"])
	wallNS := 1e9 * traced.measuredS()

	switch {
	case strings.HasPrefix(w.Name, "ctl-"):
		// Mean latency of a mutating client call, split into the journal
		// hook (measured), the wire and the core (the ladder's uncontended
		// costs) and the rest: time spent queueing for the server.
		var callNS float64
		var calls int64
		for _, kind := range []string{"submit", "contact", "resize-complete", "job-end"} {
			if a := tr.get("reshape.call/" + kind); a != nil {
				callNS += float64(a.sumNS)
				calls += a.count
			}
		}
		if calls == 0 {
			break
		}
		latency := callNS / float64(calls)
		appendNS := tr.get("durability.append").totalNS()
		perCallAppend := appendNS / float64(calls)
		wire := 1000 * m["reshape.wire_overhead_us"]
		core := m["scheduler.core_apply_ns"]
		m["durability.busy_pct"] = pct(appendNS, wallNS)
		m["durability.append_share_pct"] = pct(perCallAppend, latency)
		m["rpc.wire_share_pct"] = pct(wire, latency)
		m["scheduler.core_share_pct"] = pct(core, latency)
		m["scheduler.lock_wait_share_pct"] = pct(latency-perCallAppend-wire-core, latency)
	case strings.HasPrefix(w.Name, "sim-"):
		runNS := tr.get("simcluster.run").totalNS()
		decide, pick, plan := tr.get("arbiter.decide"), tr.get("fairshare.pick_start"), tr.get("rebalance.plan")
		m["arbiter.decide_share_pct"] = pct(decide.totalNS(), runNS)
		m["fairshare.pick_share_pct"] = pct(pick.totalNS(), runNS)
		m["rebalance.plan_share_pct"] = pct(plan.totalNS(), runNS)
		m["simcluster.engine_share_pct"] = pct(runNS-decide.totalNS()-pick.totalNS()-plan.totalNS(), runNS)
		m["arbiter.calls"] = decide.calls()
		m["fairshare.pick_calls"] = pick.calls()
		m["rebalance.ticks"] = plan.calls()
		d, _ := traced.figures()
		if w.Name == "sim-fcfs" {
			// The start of the scaling curve: speed at the workload's 100k
			// jobs as a share of the speed on the ladder's 20k of the same mix.
			untraced, _ := plain.figures()
			m["simcluster.scaling_ratio"] = m["simcluster.ns_per_contact"] / untraced["ns_per_contact"]
		}
		m["simcluster.alloc_mb_per_kjob"] = d["alloc_mb_per_kjob"]
		m["simcluster.makespan"] = d["makespan_s"]
		m["simcluster.queue_wait_p99"] = d["queue_wait_p99_s"]
		m["simcluster.gc_pause_share_pct"] = pct(1e6*d["gc_pause_ms"], wallNS/float64(len(traced.rounds)))
	case w.Name == "app-resize":
		direct, err := appDirect(env)
		if err != nil {
			return nil, err
		}
		tours := float64(len(traced.rounds))
		resizeS := traced.layerSum("resize.seconds") / tours
		resizes := traced.layerSum("resize.resizes") / tours
		m["redistrib.execute_share_pct"] = pct(direct.executeS, resizeS)
		m["mpi.spawn_merge_share_pct"] = pct(direct.spawnMergeS, resizeS)
		m["resize.session_share_pct"] = pct(resizeS-direct.executeS-direct.spawnMergeS, resizeS)
		m["redistrib.msgs_per_resize"] = float64(direct.stats.MessagesSent) / resizes
		m["redistrib.mb_per_resize"] = traced.layerSum("redistrib.moved_mb") / tours / resizes
		m["redistrib.copied_share_pct"] = pct(float64(direct.stats.FloatsCopied), float64(direct.stats.FloatsCopied+direct.stats.FloatsSent))
		m["redistrib.steps"] = float64(direct.steps)
		d, _ := traced.figures()
		m["apps.compute_share_pct"] = d["compute_share_pct"]
	}
	return m, nil
}
