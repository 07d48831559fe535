package experiments

import (
	"strings"
	"testing"

	"repro/internal/perfmodel"
)

func TestSchedulerScaleCompletesGeneratedMix(t *testing.T) {
	rows, err := SchedulerScale(perfmodel.SystemX(), []int{300})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.Jobs != 300 || r.JobsPerSec <= 0 {
		t.Fatalf("row %+v", r)
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Fatalf("utilization %v out of range (busy-integral accounting broken?)", r.Utilization)
	}
}

func TestPrintSchedulerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1000- and 10000-job simulations")
	}
	var sb strings.Builder
	if err := printSchedulerScale(&sb, perfmodel.SystemX(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "jobs/s") {
		t.Fatalf("output missing header:\n%s", sb.String())
	}
}
