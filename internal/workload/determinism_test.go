package workload

import (
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/scheduler"
	"repro/internal/simcluster"
)

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

// TestEventCoreMatchesLinearOnPaperWorkloads: both workloads of the paper
// must produce the identical schedule whether driven through the
// event-indexed core or the pre-refactor linear reference.
func TestEventCoreMatchesLinearOnPaperWorkloads(t *testing.T) {
	params := perfmodel.SystemX()
	for _, w := range []struct {
		name string
		jobs []simcluster.JobInput
	}{{"W1", W1()}, {"W2", W2()}} {
		event, err := simcluster.New(ClusterProcs, simcluster.Dynamic, params, w.jobs).Run()
		if err != nil {
			t.Fatalf("%s event: %v", w.name, err)
		}
		linear, err := simcluster.New(ClusterProcs, simcluster.Dynamic, params, w.jobs).
			WithCore(scheduler.NewLinearCore(ClusterProcs, true)).Run()
		if err != nil {
			t.Fatalf("%s linear: %v", w.name, err)
		}
		if event.Makespan != linear.Makespan || event.Utilization != linear.Utilization {
			t.Fatalf("%s: makespan/util diverge: %v/%v vs %v/%v", w.name,
				event.Makespan, event.Utilization, linear.Makespan, linear.Utilization)
		}
		if len(event.Events) != len(linear.Events) {
			t.Fatalf("%s: event counts %d vs %d", w.name, len(event.Events), len(linear.Events))
		}
		for i := range event.Events {
			if event.Events[i] != linear.Events[i] {
				t.Fatalf("%s: trace diverges at %d: %+v vs %+v", w.name, i,
					event.Events[i], linear.Events[i])
			}
		}
	}
}
