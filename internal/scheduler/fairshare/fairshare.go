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
// from the snapshot alone (the table Decide keeps across contacts is kept
// under the snapshot's stamp, so it is what the snapshot alone gives),
// weight sums are accumulated in sorted tenant order (float addition is
// not associative), and no map is ever ranged into an ordered result. The
// package is inside reshapelint's detcore scope, which enforces the
// wall-clock and map-order rules statically.
package fairshare

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/grid"
	"repro/internal/scheduler"
	"repro/internal/scheduler/arbiter"
)

// DefaultWeight is the share weight of any tenant not listed in Weights.
const DefaultWeight = 1.0

// FairShare is the tenant-aware arbiter. The zero value is NOT ready — use
// New.
type FairShare struct {
	// Weights maps tenant name → share weight (> 0). A tenant's entitled
	// share of the cluster is Total·w/Σw over the tenants active in the
	// snapshot, so weights are relative, not absolute processor counts.
	// Missing (or non-positive) entries weigh DefaultWeight. The map is
	// configuration: set it before installing the arbiter and never
	// mutate it afterwards.
	Weights map[string]float64
	// Inner decides within a tenant; New sets it to a zero BenefitRanked.
	// Its Predict hook keeps its meaning.
	Inner *arbiter.BenefitRanked

	table tenantTable
	// texts caches the reasons a (caller tenant, victim tenant) pair gives,
	// built at the pair's first use so no decision formats them; past 4 096
	// pairs it starts over.
	texts map[[2]string]pairTexts
}

// pairTexts are the tenant level's two reasons for one caller tenant while
// another tenant waits under its share: the draft and the expansion cap.
type pairTexts struct{ draft, capped string }

// tenantTable is what Decide derives from a snapshot's tenants and queued
// window. It is kept across contacts: while the snapshot's stamp stays put,
// a contact reads it as it is, and when the stamp moves the table re-reads
// the running processors and finds the waiting tenants under their share
// again. Its names and shares are rebuilt only when the active tenants or
// the pool size change.
type tenantTable struct {
	stamp scheduler.Stamp // the snapshot the table is up to date with
	total int             // the pool size the shares divide
	// rows lists the active tenants — every tenant with running jobs,
	// the caller's and every tenant in the queued window — in ascending
	// name order.
	rows []tenantRow
	// at and usageAt file 1 + the row, and the usage list position, a
	// view's tenant was last found at under its TenantID (see find).
	at, usageAt []int32
	// under holds the rows of the first two tenants of the queued window,
	// in window order, that sit under their share: a caller's victim is the
	// first of them that is not its own tenant.
	under  [2]int
	nUnder int
	// rebuilds, fills and lookups count the rebuilds of rows' names and
	// shares, the refills of their processors and the searches by name.
	rebuilds, fills, lookups int
}

// tenantRow is one active tenant: its running processors and its entitled
// share of the cluster. seen marks the row while fill matches it.
type tenantRow struct {
	name  string
	procs int
	share float64
	seen  bool
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
	best, tenants := -1, snap.Tenants
	var bestNorm float64
	for i := range snap.Heads {
		h, procs := &snap.Heads[i], 0
		if k := a.table.find(&a.table.usageAt, len(tenants), func(k int) string { return tenants[k].Tenant }, h.Tenant, h.TenantID); k >= 0 {
			procs = tenants[k].Procs
		}
		norm := float64(procs) / a.weight(h.Tenant)
		if best < 0 || norm < bestNorm ||
			(norm == bestNorm && headLess(h, &snap.Heads[best])) {
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
func headLess(a, b *scheduler.QueuedView) bool {
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
	t := &a.table
	me := a.sync(&snap)
	if len(t.rows) <= 1 {
		return a.Inner.DecideOn(&snap)
	}
	mine := &t.rows[me]
	victim, pressed := t.victim(me)
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
		var buf [16]grid.Topology
		if pts := snap.Caller.Profile.AppendShrinkPoints(buf[:0], snap.Caller.Topo); len(pts) > 0 {
			return scheduler.Decision{
				Action: scheduler.ActionShrink,
				Target: pts[0],
				Reason: a.pairText(mine.name, victim).draft,
			}
		}
		return scheduler.Decision{
			Action: scheduler.ActionNone,
			Reason: "fair-share: over share but no shrink point",
		}
	}
	d := a.Inner.DecideOn(&snap)
	if d.Action == scheduler.ActionExpand && pressed {
		grown := mine.procs + d.Target.Count() - snap.Caller.Topo.Count()
		if float64(grown) > mine.share {
			return scheduler.Decision{
				Action: scheduler.ActionNone,
				Reason: a.pairText(mine.name, victim).capped,
			}
		}
	}
	return d
}

// pairText returns the tenant level's reasons for a caller tenant while
// victim waits, building and caching them at the pair's first use.
func (a *FairShare) pairText(tenant, victim string) pairTexts {
	key := [2]string{tenant, victim}
	t, ok := a.texts[key]
	if !ok {
		tq, vq := strconv.Quote(tenant), strconv.Quote(victim)
		t = pairTexts{
			draft:  "fair-share: tenant " + tq + " over weighted share while tenant " + vq + " waits under share",
			capped: "fair-share cap: expansion would exceed tenant " + tq + " share while tenant " + vq + " waits",
		}
		if a.texts == nil || len(a.texts) >= 1<<12 {
			a.texts = make(map[[2]string]pairTexts)
		}
		a.texts[key] = t
	}
	return t
}

// sync returns the caller's row, first bringing the table up to date with
// snap unless the stamp is non-zero and the table's own and the row is filed
// under the caller's TenantID. A caller whose tenant runs nothing (only a
// hand-built snapshot has one) adds a row, so such a table keeps no stamp.
func (a *FairShare) sync(snap *scheduler.ClusterSnapshot) (me int) {
	t := &a.table
	st := snap.Stamp()
	if me = filedAt(t.at, snap.Caller.TenantID); st != (scheduler.Stamp{}) && st == t.stamp &&
		uint(me) < uint(len(t.rows)) && t.rows[me].name == snap.Caller.Tenant {
		return me
	}
	if snap.Total != t.total || !t.fill(snap) {
		a.rebuild(snap)
	}
	me = t.row(snap.Caller.Tenant, snap.Caller.TenantID)
	t.nUnder = 0
	for i := 0; i < len(snap.Queued) && t.nUnder < len(t.under); i++ {
		q := &snap.Queued[i]
		k := t.row(q.Tenant, q.TenantID)
		if r := &t.rows[k]; float64(r.procs) < r.share && !slices.Contains(t.under[:t.nUnder], k) {
			t.under[t.nUnder] = k
			t.nUnder++
		}
	}
	t.stamp = st
	if t.rows[me].procs == 0 {
		t.stamp = scheduler.Stamp{}
	}
	return me
}

// fill sets every row's processors from snap's usage list and reports
// whether the rows are exactly snap's active tenants. When it reports
// false the rows are left for rebuild.
func (t *tenantTable) fill(snap *scheduler.ClusterSnapshot) bool {
	t.fills++
	rows := t.rows
	for i := range rows {
		rows[i].procs, rows[i].seen = 0, false
	}
	seen := 0
	// see marks row i and reports whether there is one.
	see := func(i int) bool {
		if uint(i) >= uint(len(rows)) {
			return false
		}
		if !rows[i].seen {
			rows[i].seen = true
			seen++
		}
		return true
	}
	// The usage list is name-sorted too, so its rows are found in one walk.
	k := 0
	for i := range snap.Tenants {
		u := &snap.Tenants[i]
		for k < len(rows) && rows[k].name != u.Tenant {
			k++
		}
		if !see(k) {
			return false
		}
		rows[k].procs = u.Procs
	}
	return eachUnlisted(snap, func(name string, id int) bool { return see(t.row(name, id)) }) && seen == len(rows)
}

// eachUnlisted calls f with the active tenants the usage list may lack —
// the caller's, then each in the queued window, a run of one tenant's jobs
// once — and their TenantIDs, while f returns true, and reports whether it
// always did.
func eachUnlisted(snap *scheduler.ClusterSnapshot, f func(name string, id int) bool) bool {
	if !f(snap.Caller.Tenant, snap.Caller.TenantID) {
		return false
	}
	last := snap.Caller.Tenant
	for i := range snap.Queued {
		if q := &snap.Queued[i]; q.Tenant != last {
			if !f(q.Tenant, q.TenantID) {
				return false
			}
			last = q.Tenant
		}
	}
	return true
}

// rebuild lists snap's active tenants in ascending name order, each with
// its running processors and entitled share. With at most one active
// tenant the tenant level vanishes and the shares are left unset. The
// usage list arrives sorted and the few other names are inserted in place,
// so the weight sum — and with it every share — is accumulated in one
// deterministic order.
func (a *FairShare) rebuild(snap *scheduler.ClusterSnapshot) {
	t := &a.table
	t.rebuilds++
	t.total = snap.Total
	rows := t.rows[:0]
	for _, u := range snap.Tenants {
		rows = append(rows, tenantRow{name: u.Tenant, procs: u.Procs})
	}
	eachUnlisted(snap, func(name string, _ int) bool {
		t.lookups++
		if i := sort.Search(len(rows), func(k int) bool { return rows[k].name >= name }); i == len(rows) || rows[i].name != name {
			rows = slices.Insert(rows, i, tenantRow{name: name})
		}
		return true
	})
	t.rows = rows
	if len(rows) <= 1 {
		return
	}
	var totalW float64
	for _, r := range rows {
		totalW += a.weight(r.name)
	}
	for i := range rows {
		rows[i].share = float64(snap.Total) * a.weight(rows[i].name) / totalW
	}
}

// row returns the row of a view's tenant (-1: none).
func (t *tenantTable) row(tenant string, id int) int {
	return t.find(&t.at, len(t.rows), func(k int) string { return t.rows[k].name }, tenant, id)
}

// find returns the position of tenant among n ascending names, name(k) the
// k-th (-1: absent): the one filed under id in *at when the name there is
// tenant's (so a view built by hand costs a lookup, never a wrong row), else
// the one a lookup finds, which it files there.
func (t *tenantTable) find(at *[]int32, n int, name func(int) string, tenant string, id int) int {
	if i := filedAt(*at, id); uint(i) < uint(n) && name(i) == tenant {
		return i
	}
	t.lookups++
	i := sort.Search(n, func(k int) bool { return name(k) >= tenant })
	if i == n || name(i) != tenant {
		return -1
	}
	if id >= 0 {
		*at = append(*at, make([]int32, max(0, id+1-len(*at)))...)
		(*at)[id] = int32(i) + 1
	}
	return i
}

// filedAt returns the position filed under id in at (-1: none).
func filedAt(at []int32, id int) int {
	if uint(id) < uint(len(at)) {
		return int(at[id]) - 1
	}
	return -1
}

// victim returns the first tenant of the queued window, in window order,
// that is not the caller's and sits under its entitled share — the
// condition under which the tenant level overrides within-tenant logic.
func (t *tenantTable) victim(me int) (string, bool) {
	for _, v := range t.under[:t.nUnder] {
		if v != me {
			return t.rows[v].name, true
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
