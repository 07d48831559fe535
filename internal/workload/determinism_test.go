package workload

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
)

var update = flag.Bool("update", false, "rewrite the recorded goldens under testdata/")

// TestGeneratedWorkloadDeterminism: the same generator seed must replay to
// a byte-identical schedule through the event-driven core — the indexed
// queue and event loop introduce no hidden ordering.
func TestGeneratedWorkloadDeterminism(t *testing.T) {
	params := perfmodel.SystemX()
	jobs, err := Generate(GenConfig{Seed: 11, Jobs: 200, MeanInterarrival: 40, MaxProcs: 32})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *simcluster.Result {
		core := scheduler.NewCore(128, true)
		res, err := simcluster.New(128, simcluster.Dynamic, params, jobs).WithCore(core).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Utilization != b.Utilization {
		t.Fatalf("summaries differ: %v/%v vs %v/%v", a.Makespan, a.Utilization, b.Makespan, b.Utilization)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	for i := range a.Jobs {
		if a.Jobs[i].End != b.Jobs[i].End || a.Jobs[i].Start != b.Jobs[i].Start {
			t.Fatalf("job %s schedule differs between identical runs", a.Jobs[i].Name)
		}
	}
}

// paperGolden holds the W1/W2 schedules the pre-refactor linear-scan
// reference core produced.
const paperGolden = "testdata/paper-workloads.golden"

// renderPaperRuns writes the makespan, utilization and full allocation-event
// stream of both paper workloads.
func renderPaperRuns(t *testing.T) []byte {
	t.Helper()
	params := perfmodel.SystemX()
	var out bytes.Buffer
	for _, w := range []struct {
		name string
		jobs []simcluster.JobInput
	}{{"W1", W1()}, {"W2", W2()}} {
		res, err := simcluster.New(ClusterProcs, simcluster.Dynamic, params, w.jobs).Run()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		fmt.Fprintf(&out, "%s makespan=%s utilization=%s events=%d\n", w.name,
			strconv.FormatFloat(res.Makespan, 'g', -1, 64),
			strconv.FormatFloat(res.Utilization, 'g', -1, 64), len(res.Events))
		for _, e := range res.Events {
			fmt.Fprintf(&out, "%s %d %s %s %s %d\n", strconv.FormatFloat(e.Time, 'g', -1, 64),
				e.JobID, e.Job, e.Kind, e.Topo, e.Busy)
		}
	}
	return out.Bytes()
}

// TestEventCoreMatchesLinearOnPaperWorkloads: both workloads of the paper
// must reproduce, to the last event, the schedule the pre-refactor
// linear-scan reference recorded. The golden changes only under -update.
func TestEventCoreMatchesLinearOnPaperWorkloads(t *testing.T) {
	got := renderPaperRuns(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(g) && i < len(w); i++ {
			if !bytes.Equal(g[i], w[i]) {
				t.Fatalf("schedule diverges from %s at line %d:\n got: %s\nwant: %s", paperGolden, i+1, g[i], w[i])
			}
		}
		t.Fatalf("schedule has %d lines, %s has %d", len(g), paperGolden, len(w))
	}
}

// generateGolden pins the digest of Generate's output on a fixed set of
// configurations, so any change to the mix a seed produces — a draw, a
// name, a chain, an arrival — fails here, not only a change between two
// calls of one build.
const generateGolden = "testdata/generate.golden"

// generateGoldenConfigs spans the generator's paths: the single-tenant
// scaling mix, priority levels, the three-tenant bursty/steady/diurnal
// backlog and the smallest cap Generate accepts.
var generateGoldenConfigs = []struct {
	name string
	cfg  GenConfig
}{
	{"single", GenConfig{Seed: 1, Jobs: 2000, MeanInterarrival: 2, MaxProcs: 64}},
	{"priority", GenConfig{Seed: 4, Jobs: 1000, MeanInterarrival: 40, PriorityLevels: 3}},
	{"tenants", GenConfig{Seed: 1, MaxProcs: 64, PriorityLevels: 3, Iterations: 4, Tenants: []TenantSpec{
		{Name: "bursty", Jobs: 600, MeanInterarrival: 0.5, Pattern: Bursty, Burst: 10, BurstFactor: 100},
		{Name: "steady", Jobs: 200, MeanInterarrival: 1.5},
		{Name: "diurnal", Jobs: 200, MeanInterarrival: 1.5, Pattern: Diurnal, Period: 3600},
	}}},
	{"small-cap", GenConfig{Seed: 4, Jobs: 500, MeanInterarrival: 10, MaxProcs: 4}},
}

// renderMix writes every field Generate sets, one job per line.
func renderMix(w io.Writer, jobs []simcluster.JobInput) {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for _, in := range jobs {
		s := in.Spec
		fmt.Fprintf(w, "%s %s %s %d %d %d %d %s [", s.Name, s.App, s.Tenant, s.Priority,
			s.ProblemSize, s.BlockSize, s.Iterations, s.InitialTopo)
		for _, c := range s.Chain {
			fmt.Fprintf(w, " %s", c)
		}
		fmt.Fprintf(w, " ] %s %d %s %s\n", in.Model.App, in.Model.N, g(in.Model.MWWorkSeconds), g(in.Arrival))
	}
}

// TestGenerateGolden: each configuration's mix hashes to the digest
// recorded in testdata/generate.golden. The golden changes only under
// -update, which is only right when changing the generated mixes is the
// point.
func TestGenerateGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range generateGoldenConfigs {
		jobs, err := Generate(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		renderMix(h, jobs)
		fmt.Fprintf(&out, "%s jobs=%d sha256=%x\n", c.name, len(jobs), h.Sum(nil))
	}
	if *update {
		if err := os.WriteFile(generateGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(generateGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("generated mixes differ from %s:\n got:\n%s\nwant:\n%s", generateGolden, out.Bytes(), want)
	}
}
