package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/perfmodel"
)

func TestPolicyAblationRuns(t *testing.T) {
	rows, err := PolicyAblation(perfmodel.SystemX())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Policy] = r
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("%s: utilization %v", r.Policy, r.Utilization)
		}
		if r.MeanTurnaround <= 0 {
			t.Errorf("%s: turnaround %v", r.Policy, r.MeanTurnaround)
		}
	}
	// Every policy must actually resize on W1 (the workload is bursty), and
	// the cost-aware wrapper must never pay more total redistribution than
	// the unconstrained paper policy.
	for name, r := range byName {
		if r.Resizes == 0 {
			t.Errorf("%s never resized", name)
		}
	}
	paper := byName["paper"]
	costAware := byName["cost-aware+paper"]
	if costAware.TotalRedist > paper.TotalRedist*1.01 {
		t.Errorf("cost-aware redist %.1f exceeds paper policy %.1f",
			costAware.TotalRedist, paper.TotalRedist)
	}
}

func TestScheduleAblationValues(t *testing.T) {
	rows := ScheduleAblation()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CirculantSteps < 1 {
			t.Errorf("%s: %d steps", r.Transition, r.CirculantSteps)
		}
		if r.NaiveContention < 1 {
			t.Errorf("%s: contention %d", r.Transition, r.NaiveContention)
		}
	}
	// The 6x8 -> 2x2 shrink funnels many sources per destination naively.
	last := rows[3]
	if last.NaiveContention < 6 {
		t.Errorf("big shrink should show high naive contention, got %d", last.NaiveContention)
	}
}

func TestAblationPrinters(t *testing.T) {
	var buf bytes.Buffer
	if err := printAblations(&buf, perfmodel.SystemX()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Policy ablation") || !strings.Contains(out, "cost-aware") || !strings.Contains(out, "Schedule ablation") {
		t.Errorf("missing content: %q", out)
	}
}
