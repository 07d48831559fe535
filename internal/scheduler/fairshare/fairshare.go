// Package fairshare implements hierarchical multi-tenant arbitration for
// the ReSHAPE scheduler: tenant → priority → age. The tenant level is new —
// each tenant is entitled to a weighted share of the cluster's processors,
// and both *start order* (which tenant's queued job launches next) and
// *resize arbitration* (who may expand, who is drafted to shrink) are
// shaped by each tenant's deficit against that share. Below the tenant
// level nothing changes: within a tenant, jobs keep the queue's
// (priority, submission) order and resize decisions are delegated to the
// wrapped BenefitRanked arbiter, so PR 5's benefit ranking, coordinated
// shrinks and starvation aging all apply unchanged inside a tenant.
//
// Degeneracy contract: with a single active tenant every decision is the
// wrapped arbiter's verbatim and the start loop sees exactly the global
// queue head, so single-tenant workloads (the paper's W1/W2) run
// bit-identically to the bare BenefitRanked arbiter. This is pinned by
// TestFairshareSingleTenantBitIdentical in internal/experiments.
//
// Determinism contract: like every arbiter, FairShare must be a pure
// function of the cluster snapshot and its own configuration — decisions
// are replayed from the journal on recovery. Shares are therefore computed
// from the snapshot alone, weight sums are accumulated in sorted tenant
// order (float addition is not associative), and no map is ever ranged
// into an ordered result. The package is inside reshapelint's detcore
// scope, which enforces the wall-clock and map-order rules statically.
package fairshare

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/scheduler"
	"repro/internal/scheduler/arbiter"
)

// DefaultWeight is the share weight of any tenant not listed in Weights.
const DefaultWeight = 1.0

// FairShare is the tenant-aware arbiter. The zero value is ready to use:
// every tenant weighs DefaultWeight and within-tenant decisions fall to a
// zero BenefitRanked.
type FairShare struct {
	// Weights maps tenant name → share weight (> 0). A tenant's entitled
	// share of the cluster is Total·w/Σw over the tenants active in the
	// snapshot, so weights are relative, not absolute processor counts.
	// Missing (or non-positive) entries weigh DefaultWeight. The map is
	// configuration: set it before installing the arbiter and never
	// mutate it afterwards.
	Weights map[string]float64
	// Inner decides within a tenant (nil = zero BenefitRanked). Its
	// Predict hook keeps its meaning.
	Inner *arbiter.BenefitRanked

	inner arbiter.BenefitRanked // backing store when Inner is nil
	rows  []tenantRow           // shares scratch
}

// tenantRow is one active tenant in a Decide call: its running processors
// and its entitled share of the cluster.
type tenantRow struct {
	name  string
	procs int
	share float64
}

var (
	_ scheduler.Arbiter     = (*FairShare)(nil)
	_ scheduler.StartPicker = (*FairShare)(nil)
)

// New builds a fair-share arbiter over a fresh BenefitRanked with the
// given per-tenant weights (nil = every tenant equal).
func New(weights map[string]float64) *FairShare {
	return &FairShare{Weights: weights, Inner: &arbiter.BenefitRanked{}}
}

// Name identifies the arbiter.
func (a *FairShare) Name() string { return "fairshare" }

func (a *FairShare) delegate() *arbiter.BenefitRanked {
	if a.Inner != nil {
		return a.Inner
	}
	return &a.inner
}

// weight returns a tenant's configured share weight.
func (a *FairShare) weight(tenant string) float64 {
	if w, ok := a.Weights[tenant]; ok && w > 0 {
		return w
	}
	return DefaultWeight
}

// PickStart implements scheduler.StartPicker: among the per-tenant queue
// heads, start the job of the tenant with the smallest weighted usage
// (running processors divided by weight) — i.e. the largest deficit
// against its entitled share. Ties break by the queue's own order (higher
// priority, then earlier submission). If the chosen head does not fit the
// idle pool the round stalls (returns -1): the deficit tenant keeps its
// claim on the next processors to free, instead of the slot leaking to a
// better-fitting tenant — backfill, when enabled, may still use the idle
// remainder. With one tenant this is exactly the published FCFS head loop.
func (a *FairShare) PickStart(snap scheduler.StartSnapshot) int {
	best := -1
	var bestNorm float64
	for i, h := range snap.Heads {
		norm := float64(scheduler.TenantProcs(snap.Tenants, h.Tenant)) / a.weight(h.Tenant)
		if best < 0 || norm < bestNorm ||
			(norm == bestNorm && headLess(h, snap.Heads[best])) {
			best, bestNorm = i, norm
		}
	}
	if best < 0 || snap.Heads[best].Need > snap.Idle {
		return -1
	}
	return best
}

// headLess orders queue heads the way the queue itself does: higher
// priority first, then earlier submission.
func headLess(a, b scheduler.QueuedView) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.ID < b.ID
}

// Decide implements scheduler.Arbiter. With one active tenant it is the
// wrapped arbiter verbatim. With several, the tenant level arbitrates
// first: a caller whose tenant holds more than its weighted share while
// an under-share tenant has a job waiting is drafted to give one rung
// back; a caller at or under its share decides via the wrapped arbiter,
// but an expansion that would push its tenant past its share is denied
// while a victim waits. Spare capacity stays work-conserving: with no
// under-share tenant waiting, expansion beyond the share is allowed.
func (a *FairShare) Decide(snap scheduler.ClusterSnapshot) scheduler.Decision {
	rows := a.shares(snap)
	if len(rows) <= 1 {
		return a.delegate().Decide(snap)
	}
	ct := snap.Caller.Tenant
	mine := rows[search(rows, ct)]
	victim, pressed := victimTenant(snap, ct, rows)
	if pressed && float64(mine.procs) > mine.share {
		if snap.Caller.PendingFree > 0 {
			return scheduler.Decision{
				Action: scheduler.ActionNone,
				Reason: "fair-share: give-back already in flight",
			}
		}
		// One rung per contact: the shallowest revisitable configuration.
		// Convergence to the share is gradual by design — each contact
		// re-evaluates usage, so the drafting stops the moment the tenant
		// is back inside its entitlement.
		if pts := snap.Caller.Profile.ShrinkPoints(snap.Caller.Topo); len(pts) > 0 {
			return scheduler.Decision{
				Action: scheduler.ActionShrink,
				Target: pts[0],
				Reason: fmt.Sprintf("fair-share: tenant %q over weighted share while tenant %q waits under share", ct, victim),
			}
		}
		return scheduler.Decision{
			Action: scheduler.ActionNone,
			Reason: "fair-share: over share but no shrink point",
		}
	}
	d := a.delegate().Decide(snap)
	if d.Action == scheduler.ActionExpand && pressed {
		grown := mine.procs + d.Target.Count() - snap.Caller.Topo.Count()
		if float64(grown) > mine.share {
			return scheduler.Decision{
				Action: scheduler.ActionNone,
				Reason: fmt.Sprintf("fair-share cap: expansion would exceed tenant %q share while tenant %q waits", ct, victim),
			}
		}
	}
	return d
}

// shares lists the active tenants — the caller's, every tenant with running
// jobs and every tenant in the queued window — in ascending name order, each
// with its running processors and entitled share. With at most one active
// tenant the tenant level vanishes and the shares are left unset. The
// snapshot's usage list arrives sorted and the few other names are inserted
// in place, so the weight sum — and with it every share — is accumulated in
// one deterministic order. The rows are scratch reused by the next call.
func (a *FairShare) shares(snap scheduler.ClusterSnapshot) []tenantRow {
	rows := a.rows[:0]
	for _, u := range snap.Tenants {
		rows = append(rows, tenantRow{name: u.Tenant, procs: u.Procs})
	}
	note := func(t string) {
		if i := search(rows, t); i == len(rows) || rows[i].name != t {
			rows = slices.Insert(rows, i, tenantRow{name: t})
		}
	}
	note(snap.Caller.Tenant)
	last := snap.Caller.Tenant
	for _, q := range snap.Queued {
		if q.Tenant != last { // a run of one tenant's jobs is noted once
			note(q.Tenant)
			last = q.Tenant
		}
	}
	a.rows = rows
	if len(rows) <= 1 {
		return rows
	}
	var totalW float64
	for _, r := range rows {
		totalW += a.weight(r.name)
	}
	for i := range rows {
		rows[i].share = float64(snap.Total) * a.weight(rows[i].name) / totalW
	}
	return rows
}

// search returns the position of a tenant in name-sorted rows, or where it
// would be inserted.
func search(rows []tenantRow, name string) int {
	return sort.Search(len(rows), func(k int) bool { return rows[k].name >= name })
}

// victimTenant scans the queued window in queue order for a job from a
// tenant other than the caller's that sits under its entitled share — the
// condition under which the tenant level overrides within-tenant logic. A
// run of one tenant's jobs is looked up once.
func victimTenant(snap scheduler.ClusterSnapshot, caller string, rows []tenantRow) (string, bool) {
	last := caller
	for _, q := range snap.Queued {
		if q.Tenant == caller || q.Tenant == last {
			continue
		}
		last = q.Tenant
		if r := rows[search(rows, q.Tenant)]; float64(r.procs) < r.share {
			return q.Tenant, true
		}
	}
	return "", false
}

// ParseWeights parses a reshaped-style weight list, "tenantA=3,tenantB=1".
// Tenant names may be empty (the default tenant: "=2"); weights must be
// finite positive numbers, and each tenant may appear once. A NaN or
// infinite weight would make every share NaN or zero, so no tenant would
// ever be under its share and the tenant level would silently switch off.
func ParseWeights(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("fairshare: weight %q is not tenant=weight", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return nil, fmt.Errorf("fairshare: tenant %q weight %q must be a finite positive number", name, val)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("fairshare: tenant %q is weighted twice", name)
		}
		out[name] = w
	}
	return out, nil
}
