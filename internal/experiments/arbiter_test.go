package experiments

import (
	"testing"

	"repro/internal/perfmodel"
)

// WaitImprovement is the relative mean-queue-wait reduction of the
// benefit-ranked arbiter over FCFS (positive = arbiter better).
func (r ArbiterRow) WaitImprovement() float64 {
	if r.FCFSWait == 0 {
		return 0
	}
	return (r.FCFSWait - r.ArbiterWait) / r.FCFSWait
}

// TestArbiterImprovesQueueWait is the acceptance gate of the arbitration
// layer: on the paper's workload mixes the benefit-ranked arbiter must
// never increase mean queue wait over the published FCFS path, and on the
// mixes with real queue contention (W1 and the contended generated mix) it
// must strictly reduce it. The measured values are recorded in DESIGN.md's
// "Arbitration layer" section.
func TestArbiterImprovesQueueWait(t *testing.T) {
	rows, err := ArbiterComparison(perfmodel.SystemX())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-10s jobs=%2d  mean wait %7.1fs -> %7.1fs (%+.1f%%)  mean turnaround %7.1fs -> %7.1fs",
			r.Mix, r.Jobs, r.FCFSWait, r.ArbiterWait, -100*r.WaitImprovement(), r.FCFSTurn, r.ArbiterTurn)
		if r.ArbiterWait > r.FCFSWait+1e-9 {
			t.Errorf("%s: arbiter mean wait %.2fs exceeds FCFS %.2fs", r.Mix, r.ArbiterWait, r.FCFSWait)
		}
	}
	for _, mix := range []string{"W1", "contended"} {
		found := false
		for _, r := range rows {
			if r.Mix != mix {
				continue
			}
			found = true
			if r.WaitImprovement() <= 0 {
				t.Errorf("%s: no queue-wait improvement (FCFS %.2fs, arbiter %.2fs)",
					mix, r.FCFSWait, r.ArbiterWait)
			}
		}
		if !found {
			t.Errorf("mix %s missing from comparison", mix)
		}
	}
}
