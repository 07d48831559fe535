package fairshare

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/scheduler"
	"repro/internal/scheduler/arbiter"
)

func topo(r, c int) grid.Topology { return grid.Topology{Rows: r, Cols: c} }

// over points a hand-built contact snapshot at a fixed running set.
func over(snap scheduler.ClusterSnapshot, running ...scheduler.ContactView) scheduler.ClusterSnapshot {
	views := scheduler.RunningViews(running)
	snap.Cluster = views
	snap.Tenants, snap.PendingFree = views.Aggregates()
	return snap
}

// startOver is over for a start snapshot.
func startOver(snap scheduler.StartSnapshot, running ...scheduler.ContactView) scheduler.StartSnapshot {
	views := scheduler.RunningViews(running)
	snap.Cluster = views
	snap.Tenants, snap.PendingFree = views.Aggregates()
	return snap
}

// prof builds a profile that has visited each topology once with the given
// iteration time.
func prof(visits ...struct {
	t    grid.Topology
	iter float64
}) *scheduler.Profile {
	p := scheduler.NewProfile()
	for _, v := range visits {
		p.RecordIteration(v.t, v.iter)
	}
	return p
}

func visit(t grid.Topology, iter float64) struct {
	t    grid.Topology
	iter float64
} {
	return struct {
		t    grid.Topology
		iter float64
	}{t, iter}
}

// TestSingleTenantDelegatesVerbatim pins the degeneracy contract at the
// unit level: with one active tenant, Decide is the wrapped BenefitRanked
// verbatim — same Action, Target and Reason. (The end-to-end W1/W2
// bit-identity gate lives in internal/experiments.)
func TestSingleTenantDelegatesVerbatim(t *testing.T) {
	mk := func() scheduler.ClusterSnapshot {
		caller := scheduler.ContactView{
			ID: 0, Topo: topo(2, 4),
			Chain:   []grid.Topology{topo(2, 2), topo(2, 4), topo(2, 8)},
			Profile: prof(visit(topo(2, 2), 100), visit(topo(2, 4), 60)),
		}
		return over(scheduler.ClusterSnapshot{
			Now: 50, Total: 36, Idle: 2,
			Caller: caller,
			Queued: []scheduler.QueuedView{{ID: 1, Need: 4, Submit: 40}},
		}, caller)
	}
	fs := New(nil)
	bare := &arbiter.BenefitRanked{}
	got, want := fs.Decide(mk()), bare.Decide(mk())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("single-tenant Decide diverged:\nfairshare: %+v\nbenefit:   %+v", got, want)
	}
}

func TestPickStartPrefersDeficitTenant(t *testing.T) {
	snap := startOver(scheduler.StartSnapshot{
		Now: 100, Total: 36, Idle: 6,
		Heads: []scheduler.QueuedView{
			{ID: 2, Tenant: "a", Need: 4},
			{ID: 3, Tenant: "b", Need: 4},
		},
	},
		scheduler.ContactView{ID: 0, Tenant: "a", Topo: topo(2, 5)}, // a holds 10
		scheduler.ContactView{ID: 1, Tenant: "b", Topo: topo(4, 5)}) // b holds 20
	if got := New(nil).PickStart(snap); got != 0 {
		t.Fatalf("equal weights: picked %d, want tenant a (index 0)", got)
	}
	// Weighting a down to 1/4 flips the deficit: a's normalized usage is
	// 40, b's 20.
	if got := New(map[string]float64{"a": 0.25}).PickStart(snap); got != 1 {
		t.Fatalf("weighted: picked %d, want tenant b (index 1)", got)
	}
}

func TestPickStartSingleTenantMatchesFCFS(t *testing.T) {
	snap := startOver(scheduler.StartSnapshot{
		Now: 0, Total: 36, Idle: 8,
		Heads: []scheduler.QueuedView{{ID: 0, Need: 4}},
	})
	if got := New(nil).PickStart(snap); got != 0 {
		t.Fatalf("fitting head: picked %d, want 0", got)
	}
	snap.Heads[0].Need = 9
	if got := New(nil).PickStart(snap); got != -1 {
		t.Fatalf("blocked head: picked %d, want -1", got)
	}
}

// TestPickStartStallsForDeficitTenant: when the most-deficit tenant's head
// does not fit, the round stalls rather than handing the slot to a
// better-fitting tenant — the deficit tenant keeps its claim on the next
// processors to free.
func TestPickStartStallsForDeficitTenant(t *testing.T) {
	snap := startOver(scheduler.StartSnapshot{
		Now: 100, Total: 36, Idle: 4,
		Heads: []scheduler.QueuedView{
			{ID: 1, Tenant: "noisy", Need: 2},  // fits, but over-served
			{ID: 2, Tenant: "victim", Need: 8}, // deficit tenant, does not fit
		},
	}, scheduler.ContactView{ID: 0, Tenant: "noisy", Topo: topo(4, 8)})
	if got := New(nil).PickStart(snap); got != -1 {
		t.Fatalf("picked %d, want -1 (stall for the deficit tenant)", got)
	}
}

// TestOverShareCallerDrafted: a caller whose tenant exceeds its weighted
// share while another tenant waits under share is told to give back one
// rung (its shallowest revisitable configuration).
func TestOverShareCallerDrafted(t *testing.T) {
	caller := scheduler.ContactView{
		ID: 0, Tenant: "noisy", Topo: topo(4, 6), // 24 of 36: over the 18 share
		Chain:   []grid.Topology{topo(2, 6), topo(4, 6), topo(6, 6)},
		Profile: prof(visit(topo(2, 6), 100), visit(topo(4, 6), 60)),
	}
	snap := over(scheduler.ClusterSnapshot{
		Now: 100, Total: 36, Idle: 12,
		Caller: caller,
		Queued: []scheduler.QueuedView{{ID: 1, Tenant: "victim", Need: 16, Submit: 95}},
	}, caller)
	d := New(nil).Decide(snap)
	if d.Action != scheduler.ActionShrink || d.Target != topo(2, 6) {
		t.Fatalf("decision %+v, want shrink to 2x6", d)
	}
}

// TestUnderShareExpansionCapped: a priority-exempt caller may expand under
// the wrapped arbiter, but not past its tenant's share while a victim
// tenant waits.
func TestUnderShareExpansionCapped(t *testing.T) {
	caller := scheduler.ContactView{
		ID: 0, Tenant: "noisy", Priority: 1, Topo: topo(4, 4), // 16 of 36
		Chain:   []grid.Topology{topo(4, 4), topo(4, 5), topo(4, 8)},
		Profile: prof(visit(topo(4, 4), 100)),
	}
	other := scheduler.ContactView{ID: 1, Tenant: "victim", Topo: topo(4, 4), Profile: scheduler.NewProfile()}
	snap := over(scheduler.ClusterSnapshot{
		Now: 100, Total: 36, Idle: 4,
		Caller: caller,
		Queued: []scheduler.QueuedView{{ID: 2, Tenant: "victim", Need: 4, Submit: 95}},
	}, caller, other)
	// Sanity: the wrapped arbiter alone would let the exempt caller probe
	// its next rung.
	if d := (&arbiter.BenefitRanked{}).Decide(snap); d.Action != scheduler.ActionExpand {
		t.Fatalf("setup: bare arbiter decided %+v, want expand", d)
	}
	d := New(nil).Decide(snap)
	if d.Action != scheduler.ActionNone {
		t.Fatalf("decision %+v, want none (share cap)", d)
	}
}

// TestVictimSkipsCallersOwnTenant: a caller's own tenant at the head of
// the window is no victim, and the under-share tenant behind it still caps
// the caller's expansion.
func TestVictimSkipsCallersOwnTenant(t *testing.T) {
	caller := scheduler.ContactView{
		ID: 0, Tenant: "noisy", Priority: 1, Topo: topo(4, 4), // 16 of 36
		Chain:   []grid.Topology{topo(4, 4), topo(4, 5), topo(4, 8)},
		Profile: prof(visit(topo(4, 4), 100)),
	}
	other := scheduler.ContactView{ID: 1, Tenant: "victim", Topo: topo(4, 4), Profile: scheduler.NewProfile()}
	snap := over(scheduler.ClusterSnapshot{
		Now: 100, Total: 36, Idle: 4,
		Caller: caller,
		Queued: []scheduler.QueuedView{
			{ID: 2, Tenant: "noisy", Need: 4, Submit: 90},
			{ID: 3, Tenant: "victim", Need: 4, Submit: 95},
		},
	}, caller, other)
	if d := (&arbiter.BenefitRanked{}).Decide(snap); d.Action != scheduler.ActionExpand {
		t.Fatalf("setup: bare arbiter decided %+v, want expand", d)
	}
	d := New(nil).Decide(snap)
	if d.Action != scheduler.ActionNone || !strings.Contains(d.Text(), `tenant "victim" waits`) {
		t.Fatalf("decision %+v %q, want none capped for tenant victim", d, d.Text())
	}
}

// TestAtShareExpansionGranted: the cap counts the caller's growth, not
// its new size on top of its old one. An expansion that lands the tenant
// exactly on its share is granted while a victim tenant waits.
func TestAtShareExpansionGranted(t *testing.T) {
	caller := scheduler.ContactView{
		ID: 0, Tenant: "noisy", Priority: 1, Topo: topo(4, 4), // 16 of 36
		Chain:   []grid.Topology{topo(4, 4), topo(3, 6), topo(6, 6)},
		Profile: prof(visit(topo(4, 4), 100)),
	}
	other := scheduler.ContactView{ID: 1, Tenant: "victim", Topo: topo(4, 4), Profile: scheduler.NewProfile()}
	snap := over(scheduler.ClusterSnapshot{
		Now: 100, Total: 36, Idle: 4,
		Caller: caller,
		Queued: []scheduler.QueuedView{{ID: 2, Tenant: "victim", Need: 4, Submit: 95}},
	}, caller, other)
	d := New(nil).Decide(snap)
	if d.Action != scheduler.ActionExpand || d.Target != topo(3, 6) {
		t.Fatalf("decision %+v, want expand to 3x6 (18 procs, the tenant's share)", d)
	}
}

// TestPickStartTieBreaksByHead: heads of tenants with equal normalized
// usage are ordered as the queue orders them, higher priority first,
// then lower ID, whatever their position among the heads.
func TestPickStartTieBreaksByHead(t *testing.T) {
	pick := func(heads ...scheduler.QueuedView) int {
		return New(nil).PickStart(startOver(scheduler.StartSnapshot{Now: 100, Total: 36, Idle: 8, Heads: heads}))
	}
	if got := pick(scheduler.QueuedView{ID: 5, Tenant: "a", Need: 4},
		scheduler.QueuedView{ID: 7, Tenant: "b", Priority: 2, Need: 4}); got != 1 {
		t.Errorf("priority tie-break: picked %d, want 1 (the priority-2 head)", got)
	}
	if got := pick(scheduler.QueuedView{ID: 9, Tenant: "a", Need: 4},
		scheduler.QueuedView{ID: 4, Tenant: "b", Need: 4}); got != 1 {
		t.Errorf("ID tie-break: picked %d, want 1 (the lower ID)", got)
	}
}

func TestParseWeights(t *testing.T) {
	w, err := ParseWeights(" a=3, b=1.5 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 || w["a"] != 3 || w["b"] != 1.5 {
		t.Fatalf("weights %v", w)
	}
	if w, err := ParseWeights(""); err != nil || w != nil {
		t.Fatalf("empty: %v %v", w, err)
	}
	for _, bad := range []string{"a", "a=0", "a=-1", "a=x", "a=NaN,b=1", "a=Inf,b=1", "a=-Inf", "a=1,a=3"} {
		if _, err := ParseWeights(bad); err == nil {
			t.Fatalf("ParseWeights(%q) accepted", bad)
		}
	}
}

// TestPairTextMatchesFormat holds the tenant level's cached reasons to the
// %q formats they replaced, for tenant names that need escaping.
func TestPairTextMatchesFormat(t *testing.T) {
	names := []string{"", "blue", `say "hi"`, `back\slash`, "naïve-租户", "bad\xff\xfeutf8", "tab\there"}
	a := New(nil)
	for _, tenant := range names {
		for _, victim := range names {
			got := a.pairText(tenant, victim)
			if want := fmt.Sprintf("fair-share: tenant %q over weighted share while tenant %q waits under share", tenant, victim); got.draft != want {
				t.Errorf("draft text %q, want %q", got.draft, want)
			}
			if want := fmt.Sprintf("fair-share cap: expansion would exceed tenant %q share while tenant %q waits", tenant, victim); got.capped != want {
				t.Errorf("cap text %q, want %q", got.capped, want)
			}
		}
	}
}

// TestTenantReasonsAllocateNothing: once a (tenant, victim) pair has given
// a reason, the tenant level's draft and cap decide without allocating.
func TestTenantReasonsAllocateNothing(t *testing.T) {
	drafted := scheduler.ContactView{
		ID: 0, Tenant: "noisy", Topo: topo(4, 6),
		Chain:   []grid.Topology{topo(2, 6), topo(4, 6), topo(6, 6)},
		Profile: prof(visit(topo(2, 6), 100), visit(topo(4, 6), 60)),
	}
	capped := scheduler.ContactView{
		ID: 0, Tenant: "noisy", Priority: 1, Topo: topo(4, 4),
		Chain:   []grid.Topology{topo(4, 4), topo(4, 5), topo(4, 8)},
		Profile: prof(visit(topo(4, 4), 100)),
	}
	other := scheduler.ContactView{ID: 1, Tenant: "victim", Topo: topo(4, 4), Profile: scheduler.NewProfile()}
	for _, tc := range []struct {
		name string
		snap scheduler.ClusterSnapshot
		want scheduler.Action
	}{
		{"draft", over(scheduler.ClusterSnapshot{Now: 100, Total: 36, Idle: 12, Caller: drafted,
			Queued: []scheduler.QueuedView{{ID: 1, Tenant: "victim", Need: 16, Submit: 95}}}, drafted), scheduler.ActionShrink},
		{"cap", over(scheduler.ClusterSnapshot{Now: 100, Total: 36, Idle: 4, Caller: capped,
			Queued: []scheduler.QueuedView{{ID: 2, Tenant: "victim", Need: 4, Submit: 95}}}, capped, other), scheduler.ActionNone},
	} {
		a := New(nil)
		first := a.Decide(tc.snap)
		if first.Action != tc.want || !strings.Contains(first.Text(), `tenant "victim"`) {
			t.Fatalf("%s: decision %+v, want %v naming the victim", tc.name, first, tc.want)
		}
		var d scheduler.Decision
		if allocs := testing.AllocsPerRun(100, func() { d = a.Decide(tc.snap) }); allocs != 0 {
			t.Errorf("%s: %.2f allocations after the pair's first use, want 0", tc.name, allocs)
		}
		if d != first {
			t.Errorf("%s: repeat decided %+v, first %+v", tc.name, d, first)
		}
	}
}
