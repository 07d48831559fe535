package rpc_test

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/reshape"
	"repro/internal/rpc"
	"repro/internal/scheduler"
)

func admSpec(name, tenant string) scheduler.JobSpec {
	start := grid.Topology{Rows: 2, Cols: 2}
	return scheduler.JobSpec{
		Name: name, App: "lu", ProblemSize: 8000, Iterations: 10,
		Tenant: tenant, InitialTopo: start, Chain: []grid.Topology{start},
	}
}

// TestTenantSurvivesTheWire pins the tenant threading end to end: jobs
// submitted by clients with a client-level tenant identity reach the
// scheduler tagged, and Status reports both the per-job Tenant and the
// per-tenant usage rollup.
func TestTenantSurvivesTheWire(t *testing.T) {
	sched := scheduler.NewServer(16, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	acme := dial(t, srv.Addr(), reshape.WithTenant("acme"))
	beta := dial(t, srv.Addr(), reshape.WithTenant("beta"))

	ctx := context.Background()
	// Spec-level tenant wins; the client identity fills in when unset.
	aID, err := acme.Submit(ctx, admSpec("a", ""))
	if err != nil {
		t.Fatal(err)
	}
	bID, err := beta.Submit(ctx, admSpec("b", ""))
	if err != nil {
		t.Fatal(err)
	}
	cID, err := beta.Submit(ctx, admSpec("c", "gamma"))
	if err != nil {
		t.Fatal(err)
	}

	st, err := acme.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{aID: "acme", bID: "beta", cID: "gamma"}
	for _, j := range st.Jobs {
		if j.Tenant != want[j.ID] {
			t.Errorf("job %d tenant %q, want %q", j.ID, j.Tenant, want[j.ID])
		}
	}
	if len(st.Tenants) != 3 {
		t.Fatalf("tenant rollup %+v, want 3 rows", st.Tenants)
	}
	// Rows are sorted by tenant name; all three jobs run (16 procs, 4 each).
	for i, name := range []string{"acme", "beta", "gamma"} {
		u := st.Tenants[i]
		if u.Tenant != name || u.Running != 1 || u.Procs != 4 || u.Queued != 0 {
			t.Errorf("rollup[%d] = %+v, want tenant %q running 1 procs 4", i, u, name)
		}
	}
}

// TestAdmissionShedsOverQuotaTenant: a tenant exhausting its token bucket
// gets typed overload errors, counted in Stats.Shed, while another
// tenant's requests keep flowing.
func TestAdmissionShedsOverQuotaTenant(t *testing.T) {
	sched := scheduler.NewServer(64, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched,
		rpc.WithLimits(rpc.Limits{TenantRate: 0.001, TenantBurst: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	noisy, err := reshape.Dial(srv.Addr(), reshape.WithTenant("noisy"))
	if err != nil {
		t.Fatal(err)
	}
	defer noisy.Close()

	ctx := context.Background()
	var shed int
	for i := 0; i < 6; i++ {
		_, err := noisy.Status(ctx)
		if errors.Is(err, rpc.ErrOverload) {
			shed++
		} else if err != nil {
			t.Fatalf("request %d: unexpected error %v", i, err)
		}
	}
	if shed != 4 {
		t.Fatalf("shed %d of 6 requests, want 4 (burst 2)", shed)
	}
	if got := srv.Stats().Shed; got != 4 {
		t.Fatalf("Stats.Shed = %d, want 4", got)
	}

	// The noisy tenant's exhaustion must not touch another tenant.
	calm := dial(t, srv.Addr(), reshape.WithTenant("calm"))
	if _, err := calm.Status(ctx); err != nil {
		t.Fatalf("calm tenant shed alongside the noisy one: %v", err)
	}
	// And the calm tenant sheds with the same typed error once its own
	// bucket runs dry.
	var calmShed bool
	for i := 0; i < 4; i++ {
		if _, err := calm.Status(ctx); errors.Is(err, rpc.ErrOverload) {
			calmShed = true
		}
	}
	if !calmShed {
		t.Fatal("calm tenant never saw ErrOverload after exhausting its bucket")
	}
}

// TestAdmissionInflightCap: a blocking Wait holds the tenant's single
// inflight slot, shedding its further requests while other tenants are
// untouched; the slot frees when the wait resolves.
func TestAdmissionInflightCap(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched,
		rpc.WithLimits(rpc.Limits{TenantInflight: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	busy, err := reshape.Dial(srv.Addr(), reshape.WithTenant("busy"))
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	ctx := context.Background()
	id, err := busy.Submit(ctx, admSpec("hog", ""))
	if err != nil {
		t.Fatal(err)
	}
	// With a cap of one, a request is shed whenever the tenant's previous
	// one still holds the slot — the server frees it after writing the
	// reply, and the Status poll below competes with the wait for it — so
	// the calls that must get through retry until they are admitted.
	admitted := func(call func() error) error {
		for {
			if err := call(); !errors.Is(err, rpc.ErrOverload) {
				return err
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- admitted(func() error { return busy.Wait(ctx, id) }) }()

	// Once the wait occupies the slot, the tenant's next request sheds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := busy.Status(ctx)
		if errors.Is(err, rpc.ErrOverload) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("tenant never hit its inflight cap while a wait was parked")
		}
		time.Sleep(5 * time.Millisecond)
	}
	other := dial(t, srv.Addr(), reshape.WithTenant("other"))
	if _, err := other.Status(ctx); err != nil {
		t.Fatalf("other tenant shed by busy tenant's inflight cap: %v", err)
	}

	// The busy tenant cannot end its own job — the parked wait holds its
	// only slot — so finish it from the other tenant, which resolves the
	// wait and frees the slot.
	if err := admitted(func() error { return other.JobEnd(ctx, id) }); err != nil {
		t.Fatal(err)
	}
	if err := <-waitErr; err != nil {
		t.Fatalf("wait: %v", err)
	}
	for {
		if _, err := busy.Status(ctx); err == nil {
			return // slot freed
		}
		if time.Now().After(deadline) {
			t.Fatal("inflight slot never freed after the wait resolved")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionConnQuota: the per-connection bucket clips a flooding v2
// connection regardless of the tenants its frames claim.
func TestAdmissionConnQuota(t *testing.T) {
	sched := scheduler.NewServer(4, false, nil)
	srv, err := rpc.Serve("127.0.0.1:0", sched,
		rpc.WithLimits(rpc.Limits{ConnRate: 0.001, ConnBurst: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{rpc.MagicV2}); err != nil {
		t.Fatal(err)
	}
	fw := rpc.NewFrameWriter(nc)
	fr := rpc.NewFrameReader(bufio.NewReader(nc))

	tenants := []string{"t1", "t2", "t3", "t4", "t5"}
	for i, tenant := range tenants {
		if err := fw.Write(rpc.Frame{ID: uint64(i + 1), Op: rpc.OpStatus, Tenant: tenant}); err != nil {
			t.Fatal(err)
		}
	}
	codes := map[string]int{}
	for range tenants {
		var r rpc.Reply
		if err := fr.Read(&r); err != nil {
			t.Fatal(err)
		}
		codes[r.Code]++
	}
	if codes[rpc.CodeOverload] != 3 || codes[""] != 2 {
		t.Fatalf("reply codes %v, want 2 ok + 3 overload (burst 2)", codes)
	}
}
